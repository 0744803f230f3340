//! Type-erased protocol message payloads.
//!
//! Each protocol defines its own message enum; the engine moves payloads
//! around as `Arc<dyn Payload>` trait objects so a broadcast to n−1 peers
//! clones one refcount per destination instead of deep-cloning the payload.
//! The global attacker can
//! [`downcast`](crate::message::Message::downcast_ref) payloads of protocols
//! it understands in order to observe or tamper with them — this is what
//! makes rushing and adaptive attacks expressible (§III-C of the paper).
//! Mutation goes through copy-on-write (see
//! [`Message::downcast_mut`](crate::message::Message::downcast_mut)), so the
//! honest fan-out path stays zero-copy.

use core::any::Any;
use core::fmt;
use std::sync::Arc;

/// A protocol message or timer payload.
///
/// This trait is blanket-implemented for every `'static` type that is
/// `Debug + Send + Sync + Clone`, so protocols never implement it by hand:
///
/// ```
/// use bft_sim_core::payload::{Payload, boxed};
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum PingMsg { Ping(u64), Pong(u64) }
///
/// let b = boxed(PingMsg::Ping(7));
/// assert_eq!(b.as_any().downcast_ref::<PingMsg>(), Some(&PingMsg::Ping(7)));
/// ```
pub trait Payload: fmt::Debug + Send + Sync {
    /// Upcasts to [`Any`] for downcasting to the concrete message type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast, used by attackers that modify messages in flight.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Clones the payload behind the trait object into a fresh shared
    /// allocation. This is a *deep* clone; use `Arc::clone` on an existing
    /// `Arc<dyn Payload>` for the O(1) refcount bump.
    fn clone_arc(&self) -> Arc<dyn Payload>;

    /// Name of the concrete payload type, for traces and debugging.
    fn payload_type(&self) -> &'static str;

    /// Approximate size of the payload on the wire, in bytes.
    ///
    /// The network model charges serialization time for these bytes against
    /// per-link bandwidth. The blanket impl reports the in-memory size of
    /// the concrete type — a deterministic, allocation-free proxy for a real
    /// encoding (protocol enums are as large as their largest variant, which
    /// is exactly the conservative bound a capacity model wants).
    fn wire_size(&self) -> usize;
}

impl<T> Payload for T
where
    T: Any + fmt::Debug + Send + Sync + Clone,
{
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_arc(&self) -> Arc<dyn Payload> {
        Arc::new(self.clone())
    }

    fn payload_type(&self) -> &'static str {
        core::any::type_name::<T>()
    }

    fn wire_size(&self) -> usize {
        core::mem::size_of::<T>()
    }
}

// NOTE: `Box<dyn Payload>` and `Arc<dyn Payload>` would themselves satisfy
// the blanket impl above if they were `Clone` (the Arc is). Method resolution
// on an `Arc<dyn Payload>` therefore picks the *Arc's* `as_any`/`clone_*`
// instead of the inner value's — breaking downcasts. Inside this crate, every
// call on a shared payload goes through `.as_ref()` first to force dispatch
// on the inner `dyn Payload`; do the same in downstream code.

/// Boxes a concrete payload as a trait object.
pub fn boxed<P: Payload + 'static>(payload: P) -> Box<dyn Payload> {
    Box::new(payload)
}

/// Number of `u64` words in the inline payload buffer.
const INLINE_WORDS: usize = 12;

/// Maximum payload size (bytes) stored inline by [`PayloadCell`] — sized so
/// every built-in protocol's wire enum fits (enums are as large as their
/// largest variant; HotStuff's `Proposal` is the current high-water mark).
pub(crate) const INLINE_PAYLOAD_BYTES: usize = INLINE_WORDS * 8;

/// Whether values of type `T` are stored inline by [`PayloadCell::of`].
pub(crate) const fn fits_inline<T>() -> bool {
    core::mem::size_of::<T>() <= INLINE_PAYLOAD_BYTES && core::mem::align_of::<T>() <= 8
}

type InlineBuf = [u64; INLINE_WORDS];

/// Hand-rolled vtable for payloads stored inline: plain fn pointers over
/// the raw buffer, monomorphised per concrete type by [`VtFor`].
struct InlineVt {
    as_dyn: unsafe fn(&InlineBuf) -> &dyn Payload,
    as_dyn_mut: unsafe fn(&mut InlineBuf) -> &mut dyn Payload,
    clone_into: unsafe fn(&InlineBuf, &mut InlineBuf),
    clone_arc: unsafe fn(&InlineBuf) -> Arc<dyn Payload>,
    drop_in_place: unsafe fn(&mut InlineBuf),
}

// SAFETY (all five): callers guarantee `buf` holds a valid, initialised `T`
// written by `InlinePayload::new::<T>` with `fits_inline::<T>()` true, so
// the buffer is large enough and sufficiently aligned for `T`.
unsafe fn as_dyn_impl<T: Payload + 'static>(buf: &InlineBuf) -> &dyn Payload {
    unsafe { &*(buf.as_ptr() as *const T) }
}

unsafe fn as_dyn_mut_impl<T: Payload + 'static>(buf: &mut InlineBuf) -> &mut dyn Payload {
    unsafe { &mut *(buf.as_mut_ptr() as *mut T) }
}

unsafe fn clone_into_impl<T: Payload + Clone + 'static>(src: &InlineBuf, dst: &mut InlineBuf) {
    let value = unsafe { (*(src.as_ptr() as *const T)).clone() };
    unsafe { core::ptr::write(dst.as_mut_ptr() as *mut T, value) };
}

unsafe fn clone_arc_impl<T: Payload + Clone + 'static>(buf: &InlineBuf) -> Arc<dyn Payload> {
    Arc::new(unsafe { (*(buf.as_ptr() as *const T)).clone() })
}

unsafe fn drop_in_place_impl<T: Payload + 'static>(buf: &mut InlineBuf) {
    unsafe { core::ptr::drop_in_place(buf.as_mut_ptr() as *mut T) };
}

/// Const holder that promotes one [`InlineVt`] per concrete payload type.
struct VtFor<T>(core::marker::PhantomData<T>);

impl<T: Payload + Clone + 'static> VtFor<T> {
    const VT: InlineVt = InlineVt {
        as_dyn: as_dyn_impl::<T>,
        as_dyn_mut: as_dyn_mut_impl::<T>,
        clone_into: clone_into_impl::<T>,
        clone_arc: clone_arc_impl::<T>,
        drop_in_place: drop_in_place_impl::<T>,
    };
}

/// A payload stored inline in a fixed buffer — no heap allocation for the
/// value, no refcount. Cloning deep-copies into a fresh buffer (still no
/// allocation unless the payload itself owns heap data).
pub(crate) struct InlinePayload {
    vt: &'static InlineVt,
    buf: InlineBuf,
}

impl InlinePayload {
    fn new<T: Payload + Clone + 'static>(value: T) -> Self {
        debug_assert!(fits_inline::<T>());
        let mut buf = [0u64; INLINE_WORDS];
        // SAFETY: `fits_inline::<T>()` holds (checked by the only caller,
        // `PayloadCell::of`), so the buffer is large and aligned enough.
        unsafe { core::ptr::write(buf.as_mut_ptr() as *mut T, value) };
        InlinePayload {
            vt: &VtFor::<T>::VT,
            buf,
        }
    }

    /// Borrows the payload as a trait object.
    pub(crate) fn as_dyn(&self) -> &dyn Payload {
        // SAFETY: `buf` holds the `T` the vtable was monomorphised for.
        unsafe { (self.vt.as_dyn)(&self.buf) }
    }

    /// Mutably borrows the payload as a trait object.
    pub(crate) fn as_dyn_mut(&mut self) -> &mut dyn Payload {
        // SAFETY: as above; the cell owns the value exclusively.
        unsafe { (self.vt.as_dyn_mut)(&mut self.buf) }
    }

    /// Deep-clones the payload into a fresh shared allocation.
    pub(crate) fn clone_arc(&self) -> Arc<dyn Payload> {
        // SAFETY: as above.
        unsafe { (self.vt.clone_arc)(&self.buf) }
    }
}

// SAFETY: the stored value is `Send + Sync` (every `Payload` is), and the
// vtable is a `'static` shared reference to plain fn pointers.
unsafe impl Send for InlinePayload {}
unsafe impl Sync for InlinePayload {}

impl Clone for InlinePayload {
    fn clone(&self) -> Self {
        let mut buf = [0u64; INLINE_WORDS];
        // SAFETY: `self.buf` holds the vtable's `T`; `buf` is uninitialised
        // destination space of the same size and alignment.
        unsafe { (self.vt.clone_into)(&self.buf, &mut buf) };
        InlinePayload { vt: self.vt, buf }
    }
}

impl Drop for InlinePayload {
    fn drop(&mut self) {
        // SAFETY: `buf` holds the vtable's `T`, dropped exactly once here.
        unsafe { (self.vt.drop_in_place)(&mut self.buf) };
    }
}

impl fmt::Debug for InlinePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_dyn().fmt(f)
    }
}

enum CellRepr {
    Inline(InlinePayload),
    Shared(Arc<dyn Payload>),
}

/// The engine's unified payload slot: small payloads live inline (zero
/// allocations on the point-to-point send and timer hot paths), large or
/// broadcast payloads stay behind an `Arc` (one allocation shared by every
/// destination).
///
/// Cloning is always cheap: an inline byte copy or a refcount bump.
#[derive(Debug, Clone)]
pub struct PayloadCell {
    repr: CellRepr,
}

impl fmt::Debug for CellRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellRepr::Inline(p) => p.fmt(f),
            CellRepr::Shared(p) => p.as_ref().fmt(f),
        }
    }
}

impl Clone for CellRepr {
    fn clone(&self) -> Self {
        match self {
            CellRepr::Inline(p) => CellRepr::Inline(p.clone()),
            CellRepr::Shared(p) => CellRepr::Shared(Arc::clone(p)),
        }
    }
}

impl PayloadCell {
    /// Wraps a concrete payload, choosing inline storage when it fits (see
    /// [`fits_inline`]) and a shared allocation otherwise.
    pub(crate) fn of<P: Payload + Clone + 'static>(payload: P) -> Self {
        if fits_inline::<P>() {
            PayloadCell {
                repr: CellRepr::Inline(InlinePayload::new(payload)),
            }
        } else {
            PayloadCell {
                repr: CellRepr::Shared(Arc::new(payload)),
            }
        }
    }

    /// Borrows the payload as a trait object.
    pub(crate) fn as_dyn(&self) -> &dyn Payload {
        match &self.repr {
            CellRepr::Inline(p) => p.as_dyn(),
            CellRepr::Shared(p) => p.as_ref(),
        }
    }

    /// Mutably borrows the payload. Inline payloads are uniquely owned and
    /// mutate in place; shared payloads are copy-on-write (deep-cloned first
    /// if other handles alias the allocation).
    pub(crate) fn as_dyn_mut(&mut self) -> &mut dyn Payload {
        match &mut self.repr {
            CellRepr::Inline(p) => p.as_dyn_mut(),
            CellRepr::Shared(p) => {
                if Arc::get_mut(p).is_none() {
                    *p = p.as_ref().clone_arc();
                }
                Arc::get_mut(p).expect("freshly cloned payload arc is unique")
            }
        }
    }

    /// The shared handle, if the payload is `Arc`-backed. Inline payloads
    /// return `None`; promote them with [`PayloadCell::clone_arc`].
    pub(crate) fn arc(&self) -> Option<&Arc<dyn Payload>> {
        match &self.repr {
            CellRepr::Inline(_) => None,
            CellRepr::Shared(p) => Some(p),
        }
    }

    /// A shared handle to the payload: a refcount bump for `Arc`-backed
    /// payloads, a deep clone into a fresh allocation for inline ones.
    pub(crate) fn clone_arc(&self) -> Arc<dyn Payload> {
        match &self.repr {
            CellRepr::Inline(p) => p.clone_arc(),
            CellRepr::Shared(p) => Arc::clone(p),
        }
    }

    /// The payload's wire size in bytes (see [`Payload::wire_size`]).
    /// Dispatches through the trait object — no allocation, no copy.
    pub(crate) fn wire_size(&self) -> usize {
        self.as_dyn().wire_size()
    }
}

impl From<Arc<dyn Payload>> for PayloadCell {
    fn from(p: Arc<dyn Payload>) -> Self {
        PayloadCell {
            repr: CellRepr::Shared(p),
        }
    }
}

impl From<Box<dyn Payload>> for PayloadCell {
    fn from(p: Box<dyn Payload>) -> Self {
        PayloadCell {
            repr: CellRepr::Shared(Arc::from(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the payload is stored inline (no allocation, no refcount).
    fn inline(c: &PayloadCell) -> bool {
        matches!(c.repr, CellRepr::Inline(_))
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Dummy(u32);

    #[test]
    fn downcast_round_trip() {
        let b = boxed(Dummy(5));
        assert_eq!(b.as_any().downcast_ref::<Dummy>(), Some(&Dummy(5)));
        assert!(b.as_any().downcast_ref::<String>().is_none());
    }

    #[test]
    fn shared_clone_arc_is_deep() {
        let a = Arc::new(Dummy(3)) as Arc<dyn Payload>;
        let b = a.as_ref().clone_arc();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.as_ref().as_any().downcast_ref::<Dummy>(), Some(&Dummy(3)));
    }

    #[test]
    fn arc_refcount_clone_is_shallow() {
        let a = Arc::new(Dummy(4)) as Arc<dyn Payload>;
        let b = Arc::clone(&a);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn mutation_through_any_mut() {
        let mut b = boxed(Dummy(1));
        b.as_any_mut().downcast_mut::<Dummy>().unwrap().0 = 2;
        assert_eq!(b.as_any().downcast_ref::<Dummy>(), Some(&Dummy(2)));
    }

    #[test]
    fn payload_type_names_concrete_type() {
        let b = boxed(Dummy(0));
        assert!(b.payload_type().contains("Dummy"));
    }

    #[test]
    fn wire_size_reports_concrete_size_for_both_cell_shapes() {
        #[derive(Debug, Clone, PartialEq)]
        struct Big([u64; INLINE_WORDS + 1]);
        let small = PayloadCell::of(Dummy(7));
        assert!(inline(&small));
        assert_eq!(small.wire_size(), core::mem::size_of::<Dummy>());
        let big = PayloadCell::of(Big([0; INLINE_WORDS + 1]));
        assert!(!inline(&big));
        assert_eq!(big.wire_size(), core::mem::size_of::<Big>());
        // The trait-object path agrees with the cell accessor.
        assert_eq!(small.as_dyn().wire_size(), small.wire_size());
    }

    #[test]
    fn cell_inlines_small_payloads_and_spills_large_ones() {
        #[derive(Debug, Clone, PartialEq)]
        struct Big([u64; INLINE_WORDS + 1]);
        assert!(fits_inline::<Dummy>());
        assert!(!fits_inline::<Big>());
        let small = PayloadCell::of(Dummy(7));
        assert!(inline(&small));
        assert!(small.arc().is_none());
        assert_eq!(
            small.as_dyn().as_any().downcast_ref::<Dummy>(),
            Some(&Dummy(7))
        );
        let big = PayloadCell::of(Big([3; INLINE_WORDS + 1]));
        assert!(!inline(&big));
        assert!(big.arc().is_some());
        assert!(big.as_dyn().as_any().downcast_ref::<Big>().is_some());
    }

    #[test]
    fn inline_cell_clone_is_deep_and_drop_runs() {
        // A payload that owns heap data: clone must deep-copy it, and both
        // copies must drop without leaking or double-freeing.
        #[derive(Debug, Clone, PartialEq)]
        struct Owned(Vec<u64>);
        assert!(fits_inline::<Owned>());
        let a = PayloadCell::of(Owned(vec![1, 2, 3]));
        assert!(inline(&a));
        let mut b = a.clone();
        b.as_dyn_mut()
            .as_any_mut()
            .downcast_mut::<Owned>()
            .unwrap()
            .0
            .push(4);
        assert_eq!(
            a.as_dyn().as_any().downcast_ref::<Owned>(),
            Some(&Owned(vec![1, 2, 3]))
        );
        assert_eq!(
            b.as_dyn().as_any().downcast_ref::<Owned>(),
            Some(&Owned(vec![1, 2, 3, 4]))
        );
        drop(a);
        drop(b);
    }

    #[test]
    fn inline_cell_promotes_to_arc_on_demand() {
        let cell = PayloadCell::of(Dummy(9));
        let arc = cell.clone_arc();
        assert_eq!(
            arc.as_ref().as_any().downcast_ref::<Dummy>(),
            Some(&Dummy(9))
        );
        // Promoting again yields an independent allocation.
        assert!(!Arc::ptr_eq(&arc, &cell.clone_arc()));
    }

    #[test]
    fn shared_cell_mutation_is_copy_on_write() {
        let arc: Arc<dyn Payload> = Arc::new(Dummy(1));
        let mut cell = PayloadCell::from(Arc::clone(&arc));
        cell.as_dyn_mut()
            .as_any_mut()
            .downcast_mut::<Dummy>()
            .unwrap()
            .0 = 2;
        // The original handle is untouched; the cell re-homed the payload.
        assert_eq!(
            arc.as_ref().as_any().downcast_ref::<Dummy>(),
            Some(&Dummy(1))
        );
        assert_eq!(
            cell.as_dyn().as_any().downcast_ref::<Dummy>(),
            Some(&Dummy(2))
        );
    }

    #[test]
    fn cell_from_box_and_arc() {
        let from_box = PayloadCell::from(boxed(Dummy(3)));
        assert_eq!(
            from_box.as_dyn().as_any().downcast_ref::<Dummy>(),
            Some(&Dummy(3))
        );
        let a = Arc::new(Dummy(4)) as Arc<dyn Payload>;
        let from_arc = PayloadCell::from(Arc::clone(&a));
        assert!(Arc::ptr_eq(from_arc.arc().unwrap(), &a));
    }
}
