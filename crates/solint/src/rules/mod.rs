//! The rule implementations. Each module exposes
//! `check(&Config, &[SourceFile]) -> Vec<Finding>`.

pub mod atomic_ordering;
pub mod bare_mutex;
pub mod doc;
pub mod doc_counters;
pub mod doc_failpoints;
pub mod doc_knobs;
pub mod doc_locks;
pub mod doc_sections;
pub mod forbid_unsafe;
pub mod governor_tick;
pub mod lock_order;
pub(crate) mod lockgraph;
pub mod no_blocking;
pub mod panic_ratchet;
pub mod stale_escape;
pub mod ungoverned;

use crate::source::SourceFile;

/// Finds the file for a relative path in the scanned set.
pub(crate) fn file<'a>(files: &'a [SourceFile], rel: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel == rel)
}

/// Whether `rel` starts with any of the given directory prefixes.
pub(crate) fn in_dirs(rel: &str, dirs: &[String]) -> bool {
    dirs.iter().any(|d| rel.starts_with(d.as_str()))
}

/// Splits a snake_case identifier and returns its last part with a plural
/// `s` folded off (`member_sids` → `sid`, `groups` → `group`).
pub(crate) fn last_name_part(ident: &str) -> &str {
    let last = ident.rsplit('_').next().unwrap_or(ident);
    if last.len() > 2 {
        last.strip_suffix('s').unwrap_or(last)
    } else {
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parts() {
        assert_eq!(last_name_part("member_sids"), "sid");
        assert_eq!(last_name_part("groups"), "group");
        assert_eq!(last_name_part("cluster_by"), "by");
        assert_eq!(last_name_part("rows"), "row");
        assert_eq!(last_name_part("os"), "os", "short parts are not folded");
    }
}
