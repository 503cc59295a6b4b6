use mwsj_geom::Rect;
use mwsj_mapreduce::RecordSize;
use mwsj_query::RelationId;
use serde::{Deserialize, Serialize};

/// A rectangle tagged with its provenance: which relation position it
/// belongs to and its record id within that relation. This is the value
/// type of every intermediate key-value pair in the join algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaggedRect {
    /// Relation position in the query.
    pub relation: RelationId,
    /// Record id within the relation (its index in the input slice).
    pub id: u32,
    /// The rectangle.
    pub rect: Rect,
}

impl TaggedRect {
    /// Creates a tagged rectangle.
    #[must_use]
    pub fn new(relation: RelationId, id: u32, rect: Rect) -> Self {
        Self { relation, id, rect }
    }
}

/// A [`TaggedRect`]'s encoded size: relation tag (2), id (4), four f64 corners (32).
pub(crate) const TAGGED_RECT_BYTES: usize = 2 + 4 + 32;

impl RecordSize for TaggedRect {
    fn size_bytes(&self) -> usize {
        TAGGED_RECT_BYTES
    }
}

/// A shuffled value naming record `index` of its job's immutable input,
/// which the reducer reads there, charged the encoded size of that record:
/// `N` for a [`Fixed<N>`] charge, which takes no space, or the `u32` it
/// carries. The default names a [`TaggedRect`].
pub(crate) struct InputRef<C = Fixed<TAGGED_RECT_BYTES>> {
    pub index: u32,
    pub charge: C,
}

/// The charge of a record type whose every record encodes to `N` bytes.
pub(crate) struct Fixed<const N: usize>;

impl<const N: usize> InputRef<Fixed<N>> {
    /// Names input record `index`, charged `N` bytes.
    pub fn fixed(index: u32) -> Self {
        let charge = Fixed;
        Self { index, charge }
    }
}

impl<const N: usize> RecordSize for InputRef<Fixed<N>> {
    fn size_bytes(&self) -> usize {
        N
    }
}

impl RecordSize for InputRef<u32> {
    fn size_bytes(&self) -> usize {
        self.charge as usize
    }
}

/// Groups reducer-received tagged rectangles into positional per-relation
/// lists, as the local algorithms expect.
#[must_use]
pub fn group_by_relation(
    num_relations: usize,
    values: impl IntoIterator<Item = TaggedRect>,
) -> Vec<Vec<mwsj_local::LocalRect>> {
    let mut rels: Vec<Vec<mwsj_local::LocalRect>> = vec![Vec::new(); num_relations];
    for tr in values {
        rels[tr.relation.index()].push((tr.rect, tr.id));
    }
    rels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_stable() {
        let tr = TaggedRect::new(RelationId(1), 7, Rect::new(0.0, 1.0, 2.0, 1.0));
        assert_eq!(tr.size_bytes(), 38);
        let named: InputRef = InputRef::fixed(7);
        assert_eq!(named.size_bytes(), tr.size_bytes());
        // A buffered pair is a key and an index.
        assert_eq!(std::mem::size_of::<(u32, InputRef)>(), 8);
    }

    #[test]
    fn grouping_respects_positions() {
        let trs = vec![
            TaggedRect::new(RelationId(1), 5, Rect::new(0.0, 1.0, 1.0, 1.0)),
            TaggedRect::new(RelationId(0), 3, Rect::new(2.0, 1.0, 1.0, 1.0)),
            TaggedRect::new(RelationId(1), 6, Rect::new(4.0, 1.0, 1.0, 1.0)),
        ];
        let groups = group_by_relation(3, trs);
        assert_eq!(groups[0].len(), 1);
        assert_eq!(groups[1].len(), 2);
        assert!(groups[2].is_empty());
        assert_eq!(groups[0][0].1, 3);
        assert_eq!(groups[1][1].1, 6);
    }
}
