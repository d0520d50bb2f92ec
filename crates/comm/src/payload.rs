//! The [`Payload`] trait: what can travel through the runtime.
//!
//! A payload is any `Send + 'static` value that can report its wire size.
//! Sizes feed the communication-volume counters (Figure 6) and the
//! virtual-time model; they approximate what an MPI implementation would
//! put on the wire (raw element bytes, ignoring header overhead — headers
//! are modeled by the per-message `alpha` term instead).

use bt_dense::Mat;

/// A value that can be sent between ranks.
pub trait Payload: Send + 'static {
    /// Approximate number of bytes this value occupies on the wire.
    fn byte_size(&self) -> u64;
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            fn byte_size(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        })*
    };
}

scalar_payload!(f64, u64, i64, u32, i32, usize, u8, bool);

impl Payload for () {
    fn byte_size(&self) -> u64 {
        // Empty payloads still occupy a (modeled) header's worth of wire;
        // we report 0 and let the alpha term account for the message.
        0
    }
}

impl<T> Payload for Vec<T>
where
    T: Send + 'static,
{
    fn byte_size(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }
}

impl Payload for Mat {
    fn byte_size(&self) -> u64 {
        (self.rows() * self.cols() * std::mem::size_of::<f64>()) as u64
    }
}

impl Payload for String {
    fn byte_size(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: Payload> Payload for Option<T> {
    fn byte_size(&self) -> u64 {
        match self {
            Some(v) => 1 + v.byte_size(),
            None => 1,
        }
    }
}

impl<T: Payload> Payload for Box<T> {
    fn byte_size(&self) -> u64 {
        (**self).byte_size()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

impl<A: Payload, B: Payload, C: Payload, D: Payload> Payload for (A, B, C, D) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size() + self.3.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(1.0f64.byte_size(), 8);
        assert_eq!(1u32.byte_size(), 4);
        assert_eq!(true.byte_size(), 1);
        assert_eq!(().byte_size(), 0);
    }

    #[test]
    fn vec_size_counts_elements() {
        let v = vec![0.0f64; 10];
        assert_eq!(v.byte_size(), 80);
        let empty: Vec<f64> = vec![];
        assert_eq!(empty.byte_size(), 0);
    }

    #[test]
    fn mat_size_counts_entries() {
        let m = Mat::zeros(3, 5);
        assert_eq!(m.byte_size(), 15 * 8);
    }

    #[test]
    fn composite_sizes_add_up() {
        let pair = (Mat::zeros(2, 2), vec![0.0f64; 3]);
        assert_eq!(pair.byte_size(), 32 + 24);
        assert_eq!(Some(1.0f64).byte_size(), 9);
        assert_eq!((None as Option<f64>).byte_size(), 1);
        assert_eq!("abc".to_string().byte_size(), 3);
    }
}
