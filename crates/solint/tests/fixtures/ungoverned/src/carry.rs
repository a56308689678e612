//! ungoverned fixture, clean half: a batch-bounded build carries the
//! escape naming its bound, so nothing fires (and the escape is live).

pub fn extend(db: &EventDb, new_sequences: &[Sequence], template: &Template) -> Result<Index> {
    // solint: allow(ungoverned) bounded by the batch: only its new sequences are enumerated
    let (fresh, _) = build_index(db, new_sequences, template)?;
    Ok(fresh)
}
