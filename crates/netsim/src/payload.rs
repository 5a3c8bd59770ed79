//! A put's payload: owned bytes that clone without allocating.
//!
//! A put snapshots its data at initiation and the snapshot is then held in
//! several places at once — the initiator's pending-op entry (for retries),
//! the request on the wire, a fault-plane duplicate. [`Payload`] lets all
//! of them hold the same bytes: a payload that fits beside its length in
//! the space of a `Vec` header lives inline (an 8-byte GUPS update is
//! copied, never allocated), anything larger is one shared immutable
//! buffer and a clone bumps its reference count.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Bytes that fit inline: a `Vec` header less the tag and the length.
const INLINE: usize = 22;

/// Immutable owned bytes, the size of a `Vec<u8>`, whose `Clone` is a
/// 24-byte copy or a reference-count bump — never an allocation.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Shared(Arc<[u8]>),
}

// `PendingOp` and the boxed `Access` are sized around a `Vec` here.
const _: () = assert!(size_of::<Payload>() == size_of::<Vec<u8>>());

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Payload {
        if data.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..data.len()].copy_from_slice(data);
            let len = data.len() as u8;
            Payload(Repr::Inline { len, bytes })
        } else {
            Payload(Repr::Shared(data.into()))
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Payload {
        data.as_slice().into()
    }
}

impl Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(data) => data,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_every_length_around_the_inline_limit() {
        for len in [0, 1, 8, INLINE - 1, INLINE, INLINE + 1, 64, 4096] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let p = Payload::from(data.clone());
            assert_eq!(&*p, &data[..], "len {len}");
            assert_eq!(&*p.clone(), &data[..], "clone, len {len}");
            assert_eq!(format!("{p:?}"), format!("{data:?}"));
        }
    }

    #[test]
    fn large_clones_share_one_buffer() {
        let p = Payload::from(vec![7u8; 512]);
        let q = p.clone();
        assert_eq!(p.as_ptr(), q.as_ptr());
        let small = Payload::from(vec![7u8; 8]);
        assert_ne!(small.as_ptr(), small.clone().as_ptr());
    }
}
