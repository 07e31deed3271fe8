//! The EMC-Y register file: 32 registers, five of them special-purpose.

use std::fmt;
use std::str::FromStr;

/// One of the 32 EMC-Y registers.
///
/// Five registers are special-purpose (paper §2.2 counts "32 registers,
/// including five special purpose registers"):
///
/// | Register | Alias  | Role |
/// |----------|--------|------|
/// | `r0`     | `zero` | hardwired zero; writes are discarded |
/// | `r1`     | `pe`   | own processor number, preloaded at dispatch |
/// | `r2`     | `npes` | machine size, preloaded at dispatch |
/// | `r3`     | `fp`   | activation-frame base, preloaded at dispatch |
/// | `r4`     | `arg`  | the data word of the invoking packet |
///
/// `r5..r31` are general purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    /// Own processor number.
    pub const PE: Reg = Reg(1);
    /// Number of processors in the machine.
    pub const NPES: Reg = Reg(2);
    /// Activation-frame base address (word offset in local memory).
    pub const FP: Reg = Reg(3);
    /// The invoking packet's data word.
    pub const ARG: Reg = Reg(4);
    /// First general-purpose register.
    pub const FIRST_GP: u8 = 5;
    /// Number of registers in the file.
    pub const COUNT: usize = 32;

    /// Construct register `rN`; panics if `n >= 32` (a static programming
    /// error in kernel construction, not a runtime condition).
    pub const fn r(n: u8) -> Reg {
        assert!(n < 32, "EMC-Y has 32 registers");
        Reg(n)
    }

    /// Fallible constructor for decoders.
    pub fn try_r(n: u8) -> Option<Reg> {
        (n < 32).then_some(Reg(n))
    }

    /// The register number.
    #[inline]
    pub const fn num(self) -> u8 {
        self.0
    }

    /// Index into a register array.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired-zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "zero"),
            1 => write!(f, "pe"),
            2 => write!(f, "npes"),
            3 => write!(f, "fp"),
            4 => write!(f, "arg"),
            n => write!(f, "r{n}"),
        }
    }
}

impl FromStr for Reg {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "zero" => return Ok(Reg::ZERO),
            "pe" => return Ok(Reg::PE),
            "npes" => return Ok(Reg::NPES),
            "fp" => return Ok(Reg::FP),
            "arg" => return Ok(Reg::ARG),
            _ => {}
        }
        let digits = s
            .strip_prefix('r')
            .ok_or_else(|| format!("bad register name {s:?}"))?;
        let n: u8 = digits
            .parse()
            .map_err(|_| format!("bad register number {s:?}"))?;
        Reg::try_r(n).ok_or_else(|| format!("register {s:?} out of range (r0..r31)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_map_to_low_registers() {
        assert_eq!(Reg::ZERO.num(), 0);
        assert_eq!(Reg::PE.num(), 1);
        assert_eq!(Reg::NPES.num(), 2);
        assert_eq!(Reg::FP.num(), 3);
        assert_eq!(Reg::ARG.num(), 4);
    }

    #[test]
    fn parse_aliases_and_numbers() {
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::FP);
        assert_eq!("r17".parse::<Reg>().unwrap(), Reg::r(17));
        assert!("r32".parse::<Reg>().is_err());
        assert!("x5".parse::<Reg>().is_err());
        assert!("r".parse::<Reg>().is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for n in 0..32u8 {
            let r = Reg::r(n);
            assert_eq!(r.to_string().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn try_r_bounds() {
        assert!(Reg::try_r(31).is_some());
        assert!(Reg::try_r(32).is_none());
    }
}
