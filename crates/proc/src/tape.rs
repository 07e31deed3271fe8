//! A token tape for the unit tests' snapshot round trips.

use emx_core::{Codec, SimError};

/// Encodes onto `tokens`, or decodes them from `at`.
pub(crate) struct Tape {
    tokens: Vec<u64>,
    at: Option<usize>,
}

impl Tape {
    /// The tokens `snap` writes.
    pub(crate) fn encode(snap: impl FnOnce(&mut dyn Codec) -> Result<(), SimError>) -> Vec<u64> {
        let mut tape = Tape {
            tokens: Vec::new(),
            at: None,
        };
        snap(&mut tape).expect("encoding cannot fail");
        tape.tokens
    }

    /// Pass `tokens` through `snap` as a decoder; a token left over is an
    /// error too.
    pub(crate) fn decode(
        tokens: &[u64],
        snap: impl FnOnce(&mut dyn Codec) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let mut tape = Tape {
            tokens: tokens.to_vec(),
            at: Some(0),
        };
        snap(&mut tape)?;
        match tape.at {
            Some(at) if at < tape.tokens.len() => Err(tape.invalid("tokens left over")),
            _ => Ok(()),
        }
    }
}

impl Codec for Tape {
    fn decoding(&self) -> bool {
        self.at.is_some()
    }

    fn section(&mut self, _: &str) -> Result<(), SimError> {
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SimError> {
        match self.at {
            None => self.tokens.push(*v),
            Some(at) => {
                *v = *self.tokens.get(at).ok_or(self.invalid("ran out"))?;
                self.at = Some(at + 1);
            }
        }
        Ok(())
    }

    fn str(&mut self, _: &mut String) -> Result<(), SimError> {
        unreachable!("a processor unit holds no strings")
    }

    fn invalid(&self, detail: &str) -> SimError {
        SimError::SnapshotInvalid {
            reason: detail.into(),
        }
    }
}
