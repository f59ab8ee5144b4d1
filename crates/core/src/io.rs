//! The input side of memory-mapped I/O.
//!
//! A memory operation of 2 latches a word from the input device (`sinput`).
//! Address 0 reads a character (its code), address 1 reads an integer, any
//! other address prints a prompt and reads an integer. The *prompt and
//! output* side lives in [`trace`](crate::trace); this module abstracts
//! where input words come from so tests can script them.

use crate::error::{HaltKind, SimError};
use crate::word::Word;
use std::collections::VecDeque;
use std::io::BufRead;

/// A source of input words for memory-mapped input operations.
pub trait InputSource {
    /// Reads one character and returns its code (address-0 input).
    ///
    /// # Errors
    ///
    /// [`HaltKind::InputExhausted`] when no input remains; the caller fills
    /// in the cycle number.
    fn read_char(&mut self) -> Result<Word, SimError>;

    /// Reads one integer (address-1 and prompted input).
    ///
    /// # Errors
    ///
    /// [`HaltKind::InputExhausted`] when no input remains.
    fn read_int(&mut self) -> Result<Word, SimError>;
}

/// The halt every source raises when no input remains; the engine fills
/// in the cycle number.
fn exhausted() -> SimError {
    SimError::Halt(HaltKind::InputExhausted { cycle: -1 })
}

/// An input source with nothing in it: every read fails. The right choice
/// for specifications that perform no input (most of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoInput;

impl InputSource for NoInput {
    fn read_char(&mut self) -> Result<Word, SimError> {
        Err(exhausted())
    }

    fn read_int(&mut self) -> Result<Word, SimError> {
        Err(exhausted())
    }
}

/// A scripted queue of input words; both kinds of read pop the front.
///
/// ```
/// use rtl_core::io::{InputSource, ScriptedInput};
/// let mut s = ScriptedInput::new([65, 1000]);
/// assert_eq!(s.read_char().unwrap(), 65);
/// assert_eq!(s.read_int().unwrap(), 1000);
/// assert!(s.read_int().is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptedInput {
    queue: VecDeque<Word>,
}

impl ScriptedInput {
    /// Creates a queue from any word sequence.
    pub fn new(words: impl IntoIterator<Item = Word>) -> Self {
        ScriptedInput {
            queue: words.into_iter().collect(),
        }
    }

    /// Words not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl InputSource for ScriptedInput {
    fn read_char(&mut self) -> Result<Word, SimError> {
        self.queue.pop_front().ok_or_else(exhausted)
    }

    fn read_int(&mut self) -> Result<Word, SimError> {
        self.queue.pop_front().ok_or_else(exhausted)
    }
}

/// Reads input the way the generated programs do: characters are single
/// bytes, integers are whitespace-delimited decimal (optionally signed).
#[derive(Debug)]
pub struct ReaderInput<R> {
    reader: R,
}

impl<R: BufRead> ReaderInput<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        ReaderInput { reader }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, SimError> {
        let buf = self.reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(None);
        }
        let b = buf[0];
        self.reader.consume(1);
        Ok(Some(b))
    }
}

impl<R: BufRead> InputSource for ReaderInput<R> {
    fn read_char(&mut self) -> Result<Word, SimError> {
        match self.next_byte()? {
            Some(b) => Ok(Word::from(b)),
            None => Err(exhausted()),
        }
    }

    fn read_int(&mut self) -> Result<Word, SimError> {
        // Skip leading whitespace.
        let mut b = loop {
            match self.next_byte()? {
                Some(b) if b.is_ascii_whitespace() => continue,
                Some(b) => break b,
                None => return Err(exhausted()),
            }
        };
        let negative = b == b'-';
        if negative {
            b = match self.next_byte()? {
                Some(b) => b,
                None => return Err(exhausted()),
            };
        }
        if !b.is_ascii_digit() {
            return Err(exhausted());
        }
        let mut value: Word = Word::from(b - b'0');
        loop {
            let buf = self.reader.fill_buf()?;
            match buf.first() {
                Some(&d) if d.is_ascii_digit() => {
                    value = value
                        .saturating_mul(10)
                        .saturating_add(Word::from(d - b'0'));
                    self.reader.consume(1);
                }
                _ => break,
            }
        }
        Ok(if negative { -value } else { value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_input_always_fails() {
        assert!(NoInput.read_char().is_err());
        assert!(NoInput.read_int().is_err());
    }

    #[test]
    fn scripted_pops_in_order() {
        let mut s = ScriptedInput::new([1, 2, 3]);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.read_int().unwrap(), 1);
        assert_eq!(s.read_char().unwrap(), 2);
        assert_eq!(s.read_int().unwrap(), 3);
        assert!(s.read_char().is_err());
    }

    #[test]
    fn reader_chars_are_bytes() {
        let mut r = ReaderInput::new(&b"AB"[..]);
        assert_eq!(r.read_char().unwrap(), 65);
        assert_eq!(r.read_char().unwrap(), 66);
        assert!(r.read_char().is_err());
    }

    #[test]
    fn reader_ints_skip_whitespace() {
        let mut r = ReaderInput::new(&b"  12\n-7 300x"[..]);
        assert_eq!(r.read_int().unwrap(), 12);
        assert_eq!(r.read_int().unwrap(), -7);
        assert_eq!(r.read_int().unwrap(), 300);
        assert!(r.read_int().is_err(), "x is not a digit");
    }

    #[test]
    fn reader_mixing_modes() {
        let mut r = ReaderInput::new(&b"A5"[..]);
        assert_eq!(r.read_char().unwrap(), 65);
        assert_eq!(r.read_int().unwrap(), 5);
    }
}
