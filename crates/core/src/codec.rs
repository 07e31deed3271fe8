//! The one codec every checkpointed field passes through.
//!
//! A state owner names its checkpointed fields once, in one `snap` method
//! that hands each field to a [`Codec`] by `&mut`. An encoding pass reads
//! the field and appends it; a decoding pass overwrites it with what it
//! reads. Saving and restoring are therefore one expression per field, and
//! the two directions cannot drift apart. `emx-runtime` implements the
//! encoder and the decoder for the `emx-snap/1` text format
//! (`docs/CHECKPOINT.md`).
//!
//! The primitives are [`section`](Codec::section), [`u64`](Codec::u64) and
//! [`str`](Codec::str); the helpers on `dyn Codec` narrow, widen and nest
//! them.

use crate::{Cycle, SimError};

/// One pass over checkpointed state: encoding or decoding.
pub trait Codec {
    /// Whether this pass decodes, overwriting the fields it is handed.
    fn decoding(&self) -> bool;

    /// Start section `name`. Decoding requires the previous section to be
    /// used up and `name` to come next.
    fn section(&mut self, name: &str) -> Result<(), SimError>;

    /// One `u64`.
    fn u64(&mut self, v: &mut u64) -> Result<(), SimError>;

    /// One string.
    fn str(&mut self, v: &mut String) -> Result<(), SimError>;

    /// The error for a decoded value the state cannot hold, placed where
    /// the pass stands.
    fn invalid(&self, detail: &str) -> SimError;
}

impl dyn Codec + '_ {
    fn narrow<T>(&mut self, v: &mut T, what: &str) -> Result<(), SimError>
    where
        T: Copy + TryFrom<u64>,
        u64: TryFrom<T>,
    {
        // Lossless: no integer the state holds is wider than 64 bits.
        let mut w = u64::try_from(*v).unwrap_or(u64::MAX);
        self.u64(&mut w)?;
        *v = T::try_from(w).map_err(|_| self.invalid(&format!("token {w:#x} exceeds {what}")))?;
        Ok(())
    }

    /// One `u32`.
    pub fn u32(&mut self, v: &mut u32) -> Result<(), SimError> {
        self.narrow(v, "u32")
    }

    /// One `u16`.
    pub fn u16(&mut self, v: &mut u16) -> Result<(), SimError> {
        self.narrow(v, "u16")
    }

    /// One `u8`.
    pub fn u8(&mut self, v: &mut u8) -> Result<(), SimError> {
        self.narrow(v, "u8")
    }

    /// One `usize`, carried as a `u64`.
    pub fn usize(&mut self, v: &mut usize) -> Result<(), SimError> {
        self.narrow(v, "usize")
    }

    /// One boolean, carried as `0` or `1`.
    pub fn bool(&mut self, v: &mut bool) -> Result<(), SimError> {
        let mut w = u64::from(*v);
        self.u64(&mut w)?;
        *v = match w {
            0 => false,
            1 => true,
            _ => return Err(self.invalid(&format!("token {w:#x} is not a boolean"))),
        };
        Ok(())
    }

    /// One [`Cycle`].
    pub fn cycle(&mut self, v: &mut Cycle) -> Result<(), SimError> {
        let mut w = v.get();
        self.u64(&mut w)?;
        *v = Cycle::new(w);
        Ok(())
    }

    /// An optional value: whether it is present, then the value through
    /// `each`. Decoding a present value fills a blank `T::default()`.
    pub fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        each: impl FnOnce(&mut T, &mut dyn Codec) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let mut present = v.is_some();
        self.bool(&mut present)?;
        if !present {
            *v = None;
            return Ok(());
        }
        each(v.get_or_insert_with(T::default), self)
    }

    /// A sequence (a `Vec` or a `VecDeque`): its length, then each element
    /// through `each`. Decoding replaces the contents, filling blank
    /// `T::default()` elements one token-consuming step at a time, so a
    /// corrupt length runs out of tokens before it runs out of memory.
    pub fn vec<C, T>(
        &mut self,
        v: &mut C,
        each: impl FnMut(&mut T, &mut dyn Codec) -> Result<(), SimError>,
    ) -> Result<(), SimError>
    where
        C: Default + Extend<T>,
        for<'a> &'a mut C: IntoIterator<Item = &'a mut T>,
        T: Default,
    {
        let mut len = (&mut *v).into_iter().count();
        self.usize(&mut len)?;
        self.items(len, v, each)
    }

    /// The `len` elements of a sequence whose length travels elsewhere,
    /// each through `each`; decoding as for `vec`.
    pub fn items<C, T>(
        &mut self,
        len: usize,
        v: &mut C,
        mut each: impl FnMut(&mut T, &mut dyn Codec) -> Result<(), SimError>,
    ) -> Result<(), SimError>
    where
        C: Default + Extend<T>,
        for<'a> &'a mut C: IntoIterator<Item = &'a mut T>,
        T: Default,
    {
        if !self.decoding() {
            return v.into_iter().try_for_each(|x| each(x, self));
        }
        *v = C::default();
        for _ in 0..len {
            let mut x = T::default();
            each(&mut x, self)?;
            v.extend(Some(x));
        }
        Ok(())
    }
}
