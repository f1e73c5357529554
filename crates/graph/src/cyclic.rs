//! Utilities for cyclic sequences (circular orders).
//!
//! The output of the paper's algorithm is, per vertex, a *cyclic* order of
//! incident edges; interfaces of parts are cyclic orders of half-embedded
//! edges. Two cyclic orders are the same if one is a rotation of the other,
//! and represent mirror-image embeddings if one is a rotation of the other's
//! reversal. These helpers implement those comparisons and the insertion
//! operations merges perform.

/// Returns `true` if `b` is a rotation of `a` (same cyclic sequence).
///
/// # Example
///
/// ```
/// use planar_graph::cyclic::cyclic_eq;
///
/// assert!(cyclic_eq(&[1, 2, 3], &[3, 1, 2]));
/// assert!(!cyclic_eq(&[1, 2, 3], &[1, 3, 2]));
/// assert!(cyclic_eq::<u8>(&[], &[]));
/// ```
pub fn cyclic_eq<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.is_empty() {
        return true;
    }
    (0..a.len()).any(|shift| (0..a.len()).all(|i| a[i] == b[(i + shift) % b.len()]))
}

/// Returns `true` if `b` equals `a` as a cyclic sequence up to reflection
/// (reversal). Two rotation systems that differ by a global reflection
/// describe the same planar drawing viewed from the other side of the plane.
///
/// # Example
///
/// ```
/// use planar_graph::cyclic::cyclic_eq_reflect;
///
/// assert!(cyclic_eq_reflect(&[1, 2, 3, 4], &[2, 1, 4, 3]));
/// ```
pub fn cyclic_eq_reflect<T: PartialEq + Clone>(a: &[T], b: &[T]) -> bool {
    if cyclic_eq(a, b) {
        return true;
    }
    let mut rev: Vec<T> = b.to_vec();
    rev.reverse();
    cyclic_eq(a, &rev)
}

/// Canonical representative of a cyclic sequence: the lexicographically
/// smallest rotation. Useful for hashing and comparing interfaces in tests.
///
/// # Example
///
/// ```
/// use planar_graph::cyclic::canonical_rotation;
///
/// assert_eq!(canonical_rotation(&[3, 1, 2]), vec![1, 2, 3]);
/// ```
pub fn canonical_rotation<T: Ord + Clone>(a: &[T]) -> Vec<T> {
    if a.is_empty() {
        return Vec::new();
    }
    let mut best: Option<Vec<T>> = None;
    for shift in 0..a.len() {
        let rot: Vec<T> = (0..a.len())
            .map(|i| a[(i + shift) % a.len()].clone())
            .collect();
        if best.as_ref().is_none_or(|b| rot < *b) {
            best = Some(rot);
        }
    }
    best.unwrap()
}

/// Canonical representative up to rotation *and* reflection.
pub fn canonical_rotation_reflect<T: Ord + Clone>(a: &[T]) -> Vec<T> {
    let fwd = canonical_rotation(a);
    let mut rev: Vec<T> = a.to_vec();
    rev.reverse();
    let bwd = canonical_rotation(&rev);
    fwd.min(bwd)
}

/// Inserts `item` immediately after the (first) occurrence of `anchor` in the
/// cyclic sequence `seq`.
///
/// This is the elementary operation merges use: "place the new edge right
/// after edge `x` in the clockwise order around `v`".
///
/// # Panics
///
/// Panics if `anchor` is not present.
pub fn insert_after<T: PartialEq>(seq: &mut Vec<T>, anchor: &T, item: T) {
    let pos = seq
        .iter()
        .position(|x| x == anchor)
        .expect("anchor not present in cyclic sequence");
    seq.insert(pos + 1, item);
}

/// Returns the successor of the element at the (first) position of `x` in the
/// cyclic sequence, or `None` if `x` is absent.
pub fn successor<'a, T: PartialEq>(seq: &'a [T], x: &T) -> Option<&'a T> {
    let pos = seq.iter().position(|y| y == x)?;
    Some(&seq[(pos + 1) % seq.len()])
}

/// Returns the predecessor of `x` in the cyclic sequence, or `None` if absent.
pub fn predecessor<'a, T: PartialEq>(seq: &'a [T], x: &T) -> Option<&'a T> {
    let pos = seq.iter().position(|y| y == x)?;
    Some(&seq[(pos + seq.len() - 1) % seq.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_handles_all_rotations() {
        let a = [1, 2, 3, 4];
        for shift in 0..4 {
            let mut b = a.to_vec();
            b.rotate_left(shift);
            assert!(cyclic_eq(&a, &b), "shift {shift}");
        }
        assert!(!cyclic_eq(&a, &[1, 2, 4, 3]));
        assert!(!cyclic_eq(&a, &[1, 2, 3]));
    }

    #[test]
    fn reflect_eq() {
        assert!(cyclic_eq_reflect(&[1, 2, 3], &[3, 2, 1]));
        assert!(cyclic_eq_reflect(&[1, 2, 3, 4], &[3, 2, 1, 4]));
        assert!(!cyclic_eq_reflect(&[1, 2, 3, 4, 5], &[1, 3, 2, 4, 5]));
    }

    #[test]
    fn canonical_forms() {
        assert_eq!(canonical_rotation(&[2, 3, 1]), vec![1, 2, 3]);
        assert_eq!(
            canonical_rotation_reflect(&[1, 3, 2]),
            canonical_rotation_reflect(&[1, 2, 3])
        );
        // A sequence and its reflection share one canonical form.
        let a = [5, 1, 4, 2];
        let mut r = a.to_vec();
        r.reverse();
        assert_eq!(
            canonical_rotation_reflect(&a),
            canonical_rotation_reflect(&r)
        );
    }

    #[test]
    fn insertion_ops() {
        let mut s = vec![1, 2, 3];
        insert_after(&mut s, &2, 9);
        assert_eq!(s, vec![1, 2, 9, 3]);
    }

    #[test]
    fn successor_predecessor_wrap() {
        let s = [1, 2, 3];
        assert_eq!(successor(&s, &3), Some(&1));
        assert_eq!(predecessor(&s, &1), Some(&3));
        assert_eq!(successor(&s, &7), None);
    }
}
