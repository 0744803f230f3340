//! The value type agreed upon by consensus.

use core::fmt;

/// An opaque consensus value (e.g. a block digest or a binary vote).
///
/// The simulator does not interpret values; it only checks that honest nodes
/// decide *equal* values for equal slots. Protocols that agree on bits use
/// [`Value::ZERO`] / [`Value::ONE`]; block-based protocols typically use a
/// digest from `bft-sim-crypto`.
///
/// # Examples
///
/// ```
/// use bft_sim_core::value::Value;
///
/// assert_ne!(Value::ZERO, Value::ONE);
/// assert_eq!(Value::new(42).as_u64(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(u64);

impl Value {
    /// The binary value `0`.
    pub const ZERO: Value = Value(0);
    /// The binary value `1`.
    pub const ONE: Value = Value(1);

    /// Creates a value from a raw 64-bit payload.
    pub const fn new(v: u64) -> Self {
        Value(v)
    }

    /// Creates a binary value from a boolean.
    pub const fn from_bit(bit: bool) -> Self {
        if bit {
            Value::ONE
        } else {
            Value::ZERO
        }
    }

    /// Returns the raw 64-bit payload.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_values() {
        assert_eq!(Value::from_bit(true), Value::ONE);
        assert_eq!(Value::from_bit(false), Value::ZERO);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Value::new(255).to_string(), "v0xff");
    }
}
