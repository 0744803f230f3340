//! A small-string type for hot-path trace details.
//!
//! Protocol implementations report short annotations like `"view=3"` on
//! every commit, proposal and timeout. Storing those as `String` put one
//! heap allocation on the critical path of every such event; [`SmallStr`]
//! keeps strings of up to `SmallStr::INLINE_CAP` bytes inline and only
//! spills longer ones to the heap.
//!
//! The representation is *canonical*: a value is stored inline if and only
//! if it fits, so two `SmallStr`s with equal text always compare equal and
//! hash identically regardless of how they were built.

use core::fmt;
use core::hash::{Hash, Hasher};

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; SmallStr::INLINE_CAP],
    },
    Heap(String),
}

/// An immutable-ish string that stores short text inline (no allocation)
/// and long text on the heap. Append via [`core::fmt::Write`].
#[derive(Clone)]
pub struct SmallStr {
    repr: Repr,
}

impl SmallStr {
    /// Maximum byte length stored without a heap allocation.
    pub(crate) const INLINE_CAP: usize = 30;

    /// Creates an empty string (inline, no allocation).
    pub(crate) const fn new() -> Self {
        SmallStr {
            repr: Repr::Inline {
                len: 0,
                buf: [0; SmallStr::INLINE_CAP],
            },
        }
    }

    /// The text as a `&str`.
    pub(crate) fn as_str(&self) -> &str {
        match &self.repr {
            Repr::Inline { len, buf } => core::str::from_utf8(&buf[..*len as usize])
                .expect("SmallStr buffers only ever hold whole &str copies"),
            Repr::Heap(s) => s.as_str(),
        }
    }

    /// Byte length of the text.
    pub(crate) fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(s) => s.len(),
        }
    }

    /// Formats `args` directly into a fresh `SmallStr` — the zero-alloc
    /// path behind [`Context::report_fmt`](crate::context::Context::report_fmt).
    pub(crate) fn format(args: fmt::Arguments<'_>) -> Self {
        use fmt::Write as _;
        let mut s = SmallStr::new();
        s.write_fmt(args).expect("SmallStr never errors on write");
        s
    }
}

impl Default for SmallStr {
    fn default() -> Self {
        SmallStr::new()
    }
}

impl fmt::Write for SmallStr {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let cur = *len as usize;
                if cur + s.len() <= SmallStr::INLINE_CAP {
                    buf[cur..cur + s.len()].copy_from_slice(s.as_bytes());
                    *len = (cur + s.len()) as u8;
                } else {
                    // Spill: the final length exceeds the inline capacity,
                    // which keeps the representation canonical.
                    let mut heap = String::with_capacity(cur + s.len());
                    heap.push_str(
                        core::str::from_utf8(&buf[..cur])
                            .expect("SmallStr buffers only ever hold whole &str copies"),
                    );
                    heap.push_str(s);
                    self.repr = Repr::Heap(heap);
                }
            }
            Repr::Heap(heap) => heap.push_str(s),
        }
        Ok(())
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        use fmt::Write as _;
        let mut out = SmallStr::new();
        if s.len() > SmallStr::INLINE_CAP {
            out.repr = Repr::Heap(s.to_string());
        } else {
            out.write_str(s).expect("inline copy cannot fail");
        }
        out
    }
}

impl From<String> for SmallStr {
    fn from(s: String) -> Self {
        if s.len() > SmallStr::INLINE_CAP {
            SmallStr {
                repr: Repr::Heap(s),
            }
        } else {
            SmallStr::from(s.as_str())
        }
    }
}

impl From<SmallStr> for String {
    fn from(s: SmallStr) -> Self {
        match s.repr {
            Repr::Heap(h) => h,
            Repr::Inline { .. } => s.as_str().to_string(),
        }
    }
}

impl AsRef<str> for SmallStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl core::ops::Deref for SmallStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

// Equality/hashing go through the text so the derived forms can never
// diverge between representations (belt and braces on top of canonicality).
impl PartialEq for SmallStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SmallStr {}

impl PartialEq<str> for SmallStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the text is stored inline (i.e. cost no allocation).
    fn inline(s: &SmallStr) -> bool {
        matches!(s.repr, Repr::Inline { .. })
    }

    #[test]
    fn short_strings_stay_inline() {
        let s = SmallStr::from("view=3");
        assert!(inline(&s));
        assert_eq!(s.as_str(), "view=3");
        assert_eq!(s.len(), 6);
        let exactly = "x".repeat(SmallStr::INLINE_CAP);
        assert!(inline(&SmallStr::from(exactly.as_str())));
    }

    #[test]
    fn long_strings_spill_to_heap() {
        let long = "y".repeat(SmallStr::INLINE_CAP + 1);
        let s = SmallStr::from(long.as_str());
        assert!(!inline(&s));
        assert_eq!(s.as_str(), long);
        assert_eq!(String::from(s), long);
    }

    #[test]
    fn representation_is_canonical_across_construction_paths() {
        let a = SmallStr::from("short");
        let b = SmallStr::from("short".to_string());
        let c = SmallStr::format(format_args!("sho{}", "rt"));
        assert!(inline(&a) && inline(&b) && inline(&c));
        assert_eq!(a, b);
        assert_eq!(a, c);
        use std::collections::hash_map::DefaultHasher;
        let h = |s: &SmallStr| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn format_appends_across_the_spill_boundary() {
        use fmt::Write as _;
        let mut s = SmallStr::new();
        for i in 0..10 {
            write!(s, "{i:0>4}").unwrap();
        }
        assert_eq!(s.as_str(), "0000000100020003000400050006000700080009");
        assert!(!inline(&s));
        // Equal to a directly-built heap string.
        assert_eq!(s, SmallStr::from(s.as_str().to_string()));
    }

    #[test]
    fn unicode_survives_both_representations() {
        let short = "émoji 😀";
        assert_eq!(SmallStr::from(short).as_str(), short);
        let long = "émoji 😀 repeated: 😀😀😀😀😀😀😀";
        assert!(long.len() > SmallStr::INLINE_CAP);
        assert_eq!(SmallStr::from(long).as_str(), long);
    }

    #[test]
    fn compares_with_plain_strs() {
        let s = SmallStr::from("commit");
        assert_eq!(s, "commit");
        assert_eq!(s, *"commit");
        assert_ne!(s, "prepare");
    }
}
