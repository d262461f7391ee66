use std::fmt;

use crate::BYTES_PER_ELEM;

/// The geometry of a feature map: height × width × channels.
///
/// Fully-connected activations are represented as `1 × 1 × C`, matching the
/// paper's convention that an FC layer is a CONV layer with
/// `H_o = H_i = W_o = W_i = K_h = K_w = 1` (Sec. IV-A, footnote 2).
///
/// ```rust
/// use dnn_graph::TensorShape;
///
/// let s = TensorShape::new(56, 56, 64);
/// assert_eq!(s.elements(), 56 * 56 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorShape {
    /// Feature-map height (`H`).
    pub h: usize,
    /// Feature-map width (`W`).
    pub w: usize,
    /// Channel count (`C`).
    pub c: usize,
}

impl TensorShape {
    /// Creates a shape. All dimensions must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(h: usize, w: usize, c: usize) -> Self {
        assert!(
            h > 0 && w > 0 && c > 0,
            "tensor dimensions must be non-zero"
        );
        Self { h, w, c }
    }

    /// Shape of a flattened (vector) activation with `c` features.
    pub fn vector(c: usize) -> Self {
        Self::new(1, 1, c)
    }

    /// Total number of elements (`H · W · C`).
    pub fn elements(&self) -> u64 {
        self.h as u64 * self.w as u64 * self.c as u64
    }

    /// Size in bytes given the workspace-wide INT8 element width.
    pub fn bytes(&self) -> u64 {
        self.elements() * BYTES_PER_ELEM
    }

    /// Returns `true` when the spatial extent is a single pixel (vector data).
    pub fn is_vector(&self) -> bool {
        self.h == 1 && self.w == 1
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.h, self.w, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_bytes() {
        let s = TensorShape::new(7, 7, 2048);
        assert_eq!(s.elements(), 7 * 7 * 2048);
        assert_eq!(s.bytes(), s.elements() * BYTES_PER_ELEM);
    }

    #[test]
    fn vector_shape() {
        let s = TensorShape::vector(1000);
        assert!(s.is_vector());
        assert_eq!(s.elements(), 1000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = TensorShape::new(0, 3, 3);
    }

    #[test]
    fn display() {
        assert_eq!(TensorShape::new(224, 224, 3).to_string(), "224x224x3");
    }
}
