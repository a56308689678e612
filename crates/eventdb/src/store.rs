//! The event database: a dictionary-encoded, columnar, in-memory store.
//!
//! Events are appended as rows ([`EventDb::push_row`]) and read back either
//! as scalar [`Value`]s or — the hot path for the S-OLAP engines — as
//! [`LevelValue`]s: the value of a dimension at a chosen abstraction level
//! of its concept hierarchy ([`EventDb::value_at_level`]).
//!
//! Appending is two steps. [`EventDb::stage_rows`] pushes a batch behind the
//! *published prefix* without changing [`EventDb::len`] or
//! [`EventDb::version`]; [`EventDb::publish`] then moves the prefix to the
//! end of the staged rows in one step. Every reader stops at `len()`, so a
//! writer can derive state from staged rows (the engine's carry-forward)
//! while readers keep seeing the version before them.

use std::ops::Range;

use crate::dict::Dictionary;
use crate::error::{Error, Result};
use crate::hierarchy::{
    validate_level, DictHierarchy, DictLevel, Hierarchy, IntHierarchy, TimeHierarchy, UNMAPPED,
};
use crate::schema::{AttrId, ColumnType, Schema};
use crate::value::{LevelValue, RowId, Value};

/// Column storage.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str { dict: Dictionary, data: Vec<u32> },
    Time(Vec<i64>),
}

impl ColumnData {
    fn new(ctype: ColumnType) -> Self {
        match ctype {
            ColumnType::Int => ColumnData::Int(Vec::new()),
            ColumnType::Float => ColumnData::Float(Vec::new()),
            ColumnType::Str => ColumnData::Str {
                dict: Dictionary::new(),
                data: Vec::new(),
            },
            ColumnType::Time => ColumnData::Time(Vec::new()),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            ColumnData::Int(v) | ColumnData::Time(v) => v.truncate(len),
            ColumnData::Float(v) => v.truncate(len),
            ColumnData::Str { data, .. } => data.truncate(len),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int(v) | ColumnData::Time(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Str { dict, data } => data.len() * 4 + dict.heap_bytes(),
        }
    }
}

/// The in-memory event database (Figure 1 of the paper).
#[derive(Debug)]
pub struct EventDb {
    schema: Schema,
    cols: Vec<ColumnData>,
    hierarchies: Vec<Hierarchy>,
    base_level_names: Vec<Option<String>>,
    /// Published rows: what every reader sees.
    len: usize,
    /// Rows pushed past `len` by [`EventDb::stage_rows`], not yet published.
    staged: usize,
    version: u64,
}

impl Clone for EventDb {
    /// Clones the published state; a staged tail is not copied.
    fn clone(&self) -> Self {
        let mut cols = self.cols.clone();
        if self.staged > 0 {
            for col in &mut cols {
                col.truncate(self.len);
            }
        }
        EventDb {
            schema: self.schema.clone(),
            cols,
            hierarchies: self.hierarchies.clone(),
            base_level_names: self.base_level_names.clone(),
            len: self.len,
            staged: 0,
            version: self.version,
        }
    }
}

impl EventDb {
    /// Creates an empty database with the given schema.
    pub fn new(schema: Schema) -> Self {
        let cols = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new(c.ctype))
            .collect();
        let n = schema.len();
        EventDb {
            schema,
            cols,
            hierarchies: vec![Hierarchy::None; n],
            base_level_names: vec![None; n],
            len: 0,
            staged: 0,
            version: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of published events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A monotonically increasing version, bumped on every mutation (once
    /// per appended row, when it is published). Cache keys embed it so that
    /// appends invalidate derived artifacts.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The rows staged behind the published prefix: `len()..` their end.
    pub fn staged_rows(&self) -> Range<RowId> {
        self.len as RowId..(self.len + self.staged) as RowId
    }

    /// The version [`EventDb::publish`] will move to.
    pub fn staged_version(&self) -> u64 {
        self.version + self.staged as u64
    }

    /// Resolves an attribute name.
    pub fn attr(&self, name: &str) -> Result<AttrId> {
        self.schema.attr(name)
    }

    /// Checks one event row against the schema without mutating anything:
    /// arity, then per-column type compatibility under the same coercions
    /// [`EventDb::push_row`] performs. A row that validates is guaranteed
    /// to push successfully — the durable store path relies on this to
    /// validate *before* committing the row to the write-ahead log.
    pub fn validate_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                actual: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let def = self.schema.column(i as AttrId);
            let ok = matches!(
                (&self.cols[i], v),
                (ColumnData::Int(_), Value::Int(_))
                    | (ColumnData::Float(_), Value::Float(_) | Value::Int(_))
                    | (ColumnData::Str { .. }, Value::Str(_))
                    | (ColumnData::Time(_), Value::Time(_) | Value::Int(_))
            ) || (matches!(&self.cols[i], ColumnData::Time(_))
                && matches!(v, Value::Str(s) if crate::time::parse_timestamp(s).is_some()));
            if !ok {
                return Err(Error::TypeMismatch {
                    attribute: def.name.clone(),
                    expected: def.ctype.name(),
                    actual: v.type_name(),
                });
            }
        }
        Ok(())
    }

    /// Appends one event and publishes it: [`EventDb::stage_rows`] then
    /// [`EventDb::publish`]. Values must match the column types
    /// positionally; `Int` literals are accepted for `Time` and `Float`
    /// columns, and parseable string literals are accepted for `Time`
    /// columns.
    pub fn push_row(&mut self, values: &[Value]) -> Result<RowId> {
        let rows = self.stage_rows(&[values])?;
        self.publish();
        Ok(rows.start)
    }

    /// Pushes a batch behind the published prefix without changing
    /// [`EventDb::len`] or [`EventDb::version`], returning the rows it
    /// occupies. The whole batch is validated first, so a rejected batch
    /// leaves the store untouched. Staged rows are readable by row id (the
    /// writer derives from them) but invisible to everything bounded by
    /// `len()` until [`EventDb::publish`].
    pub fn stage_rows<R: AsRef<[Value]>>(&mut self, rows: &[R]) -> Result<Range<RowId>> {
        for values in rows {
            self.validate_row(values.as_ref())?;
        }
        let start = self.staged_rows().end;
        for values in rows {
            for (i, v) in values.as_ref().iter().enumerate() {
                match &mut self.cols[i] {
                    ColumnData::Int(col) => col.push(v.as_int().expect("validated")),
                    ColumnData::Float(col) => col.push(v.as_float().expect("validated")),
                    ColumnData::Time(col) => col.push(v.as_time().expect("validated")),
                    ColumnData::Str { dict, data } => {
                        let id = dict.intern(v.as_str().expect("validated"));
                        data.push(id);
                    }
                }
            }
        }
        self.staged += rows.len();
        Ok(start..self.staged_rows().end)
    }

    /// Publishes every staged row at once: `len()` moves to the end of the
    /// staged rows and the version advances by one per row. Returns the new
    /// version.
    pub fn publish(&mut self) -> u64 {
        self.len += self.staged;
        self.version += self.staged as u64;
        self.staged = 0;
        self.version
    }

    /// Reads an event attribute back as a scalar [`Value`].
    pub fn value(&self, row: RowId, attr: AttrId) -> Value {
        match &self.cols[attr as usize] {
            ColumnData::Int(v) => Value::Int(v[row as usize]),
            ColumnData::Float(v) => Value::Float(v[row as usize]),
            ColumnData::Time(v) => Value::Time(v[row as usize]),
            ColumnData::Str { dict, data } => Value::Str(
                dict.resolve(data[row as usize])
                    .expect("interned id resolves")
                    .to_owned(),
            ),
        }
    }

    /// Integer accessor (also accepts `Time` columns).
    pub fn int(&self, row: RowId, attr: AttrId) -> Option<i64> {
        match &self.cols[attr as usize] {
            ColumnData::Int(v) | ColumnData::Time(v) => Some(v[row as usize]),
            _ => None,
        }
    }

    /// Float accessor (widens `Int` columns; used by measure aggregation).
    pub fn float(&self, row: RowId, attr: AttrId) -> Option<f64> {
        match &self.cols[attr as usize] {
            ColumnData::Float(v) => Some(v[row as usize]),
            ColumnData::Int(v) | ColumnData::Time(v) => Some(v[row as usize] as f64),
            _ => None,
        }
    }

    /// Dictionary id accessor for string columns.
    pub fn str_id(&self, row: RowId, attr: AttrId) -> Option<u32> {
        match &self.cols[attr as usize] {
            ColumnData::Str { data, .. } => Some(data[row as usize]),
            _ => None,
        }
    }

    /// The dictionary of a string column.
    pub fn dict(&self, attr: AttrId) -> Option<&Dictionary> {
        match &self.cols[attr as usize] {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// The stored values of an `Int` or `Time` column, staged rows
    /// included: the typed slice a compiled kernel reads.
    pub(crate) fn int_column(&self, attr: AttrId) -> Option<&[i64]> {
        match self.cols.get(attr as usize)? {
            ColumnData::Int(v) | ColumnData::Time(v) => Some(v),
            _ => None,
        }
    }

    /// The stored values of a `Float` column, staged rows included.
    pub(crate) fn float_column(&self, attr: AttrId) -> Option<&[f64]> {
        match self.cols.get(attr as usize)? {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The dictionary ids of a `Str` column, staged rows included, with
    /// the dictionary they index.
    pub(crate) fn str_column(&self, attr: AttrId) -> Option<(&[u32], &Dictionary)> {
        match self.cols.get(attr as usize)? {
            ColumnData::Str { dict, data } => Some((data, dict)),
            _ => None,
        }
    }

    /// The hierarchy attached to an attribute.
    pub fn hierarchy(&self, attr: AttrId) -> &Hierarchy {
        &self.hierarchies[attr as usize]
    }

    // ------------------------------------------------------------------
    // Abstraction levels
    // ------------------------------------------------------------------

    /// Names the base (level-0) abstraction of an attribute, e.g. `station`
    /// for `location` or `individual` for `card-id`.
    pub fn set_base_level_name(&mut self, attr: AttrId, name: &str) {
        self.base_level_names[attr as usize] = Some(name.to_owned());
    }

    /// The configured base-level name of an attribute, if any.
    pub fn base_level_name(&self, attr: AttrId) -> Option<&str> {
        self.base_level_names[attr as usize].as_deref()
    }

    /// Number of abstraction levels of an attribute (≥ 1).
    pub fn level_count(&self, attr: AttrId) -> usize {
        self.hierarchies[attr as usize].level_count()
    }

    /// The display name of a level.
    pub fn level_name(&self, attr: AttrId, level: usize) -> String {
        if level == 0 {
            if let Some(n) = &self.base_level_names[attr as usize] {
                return n.clone();
            }
            if let Hierarchy::Time(_) = self.hierarchies[attr as usize] {
                return self.schema.column(attr).name.clone();
            }
            return self.schema.column(attr).name.clone();
        }
        self.hierarchies[attr as usize]
            .level_name(level)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("level-{level}"))
    }

    /// Resolves a level name for an attribute. Accepts the configured base
    /// name, the attribute's own name or `raw` for level 0, and hierarchy
    /// level names above it.
    pub fn level_by_name(&self, attr: AttrId, name: &str) -> Result<usize> {
        let def = self.schema.column(attr);
        if name == def.name
            || name == "raw"
            || self.base_level_names[attr as usize].as_deref() == Some(name)
        {
            return Ok(0);
        }
        let h = &self.hierarchies[attr as usize];
        for lvl in 0..h.level_count() {
            if h.level_name(lvl) == Some(name) {
                return Ok(lvl);
            }
        }
        Err(Error::UnknownLevel {
            attribute: def.name.clone(),
            level: name.to_owned(),
        })
    }

    /// The value of `attr` for event `row` at abstraction `level`.
    pub fn value_at_level(&self, row: RowId, attr: AttrId, level: usize) -> Result<LevelValue> {
        let a = attr as usize;
        match (&self.cols[a], &self.hierarchies[a]) {
            (ColumnData::Str { data, dict }, h) => {
                let base = data[row as usize];
                if level == 0 {
                    return Ok(base as LevelValue);
                }
                match h {
                    Hierarchy::Dict(dh) => dh.map_up(base, level).map(|v| v as LevelValue).ok_or(
                        Error::IncompleteHierarchy {
                            attribute: self.schema.column(attr).name.clone(),
                            level: self.level_name(attr, level),
                            value: dict.resolve(base).unwrap_or("<unknown>").to_owned(),
                        },
                    ),
                    _ => Err(self.unknown_level_err(attr, level)),
                }
            }
            (ColumnData::Int(data), h) => {
                let raw = data[row as usize];
                if level == 0 {
                    return Ok(raw as LevelValue);
                }
                match h {
                    Hierarchy::Int(ih) => ih.map_up(raw, level).map(|v| v as LevelValue).ok_or(
                        Error::IncompleteHierarchy {
                            attribute: self.schema.column(attr).name.clone(),
                            level: self.level_name(attr, level),
                            value: raw.to_string(),
                        },
                    ),
                    _ => Err(self.unknown_level_err(attr, level)),
                }
            }
            (ColumnData::Time(data), h) => {
                let t = data[row as usize];
                match h {
                    Hierarchy::Time(th) => th
                        .levels
                        .get(level)
                        .map(|g| g.bucket(t) as LevelValue)
                        .ok_or_else(|| self.unknown_level_err(attr, level)),
                    _ if level == 0 => Ok(t as LevelValue),
                    _ => Err(self.unknown_level_err(attr, level)),
                }
            }
            (ColumnData::Float(data), _) => {
                if level == 0 {
                    Ok(data[row as usize].to_bits())
                } else {
                    Err(self.unknown_level_err(attr, level))
                }
            }
        }
    }

    /// Maps a level value of `attr` from `from_level` up to the coarser
    /// `to_level`. Used by the inverted-index P-ROLL-UP fast path.
    pub fn map_up(
        &self,
        attr: AttrId,
        from_level: usize,
        v: LevelValue,
        to_level: usize,
    ) -> Result<LevelValue> {
        if to_level == from_level {
            return Ok(v);
        }
        if to_level < from_level {
            return Err(Error::InvalidOperation(format!(
                "map_up: target level {to_level} is finer than source level {from_level}"
            )));
        }
        let a = attr as usize;
        match &self.hierarchies[a] {
            Hierarchy::Dict(dh) => {
                let mut id = v as u32;
                for lvl in &dh.levels[from_level..to_level] {
                    id = lvl
                        .map(id)
                        .ok_or_else(|| self.incomplete_err(attr, to_level, v, from_level))?;
                }
                Ok(id as LevelValue)
            }
            Hierarchy::Int(ih) => {
                if from_level == 0 {
                    return ih
                        .map_up(v as i64, to_level)
                        .map(|x| x as LevelValue)
                        .ok_or_else(|| self.incomplete_err(attr, to_level, v, from_level));
                }
                let mut id = v as u32;
                for lvl in &ih.levels[from_level..to_level] {
                    id = lvl
                        .map(id)
                        .ok_or_else(|| self.incomplete_err(attr, to_level, v, from_level))?;
                }
                Ok(id as LevelValue)
            }
            Hierarchy::Time(th) => {
                let (from_g, to_g) = (
                    *th.levels
                        .get(from_level)
                        .ok_or_else(|| self.unknown_level_err(attr, from_level))?,
                    *th.levels
                        .get(to_level)
                        .ok_or_else(|| self.unknown_level_err(attr, to_level))?,
                );
                Ok(to_g.bucket(from_g.representative(v as i64)) as LevelValue)
            }
            Hierarchy::None => Err(Error::NoHierarchy(self.schema.column(attr).name.clone())),
        }
    }

    /// Renders a level value back to a display string.
    pub fn render_level(&self, attr: AttrId, level: usize, v: LevelValue) -> String {
        let a = attr as usize;
        match (&self.cols[a], &self.hierarchies[a]) {
            (ColumnData::Str { dict, .. }, h) => {
                if level == 0 {
                    return dict.resolve(v as u32).unwrap_or("<?>").to_owned();
                }
                if let Hierarchy::Dict(dh) = h {
                    if let Some(l) = dh.levels.get(level - 1) {
                        return l.dict.resolve(v as u32).unwrap_or("<?>").to_owned();
                    }
                }
                format!("<{v}>")
            }
            (ColumnData::Int(_), h) => {
                if level == 0 {
                    return (v as i64).to_string();
                }
                if let Hierarchy::Int(ih) = h {
                    if let Some(l) = ih.levels.get(level - 1) {
                        return l.dict.resolve(v as u32).unwrap_or("<?>").to_owned();
                    }
                }
                format!("<{v}>")
            }
            (ColumnData::Time(_), Hierarchy::Time(th)) => match th.levels.get(level) {
                Some(g) => g.render(v as i64),
                None => format!("<{v}>"),
            },
            (ColumnData::Time(_), _) => crate::time::format_timestamp(v as i64),
            (ColumnData::Float(_), _) => f64::from_bits(v).to_string(),
        }
    }

    /// Parses a display string into a level value of `(attr, level)` — the
    /// inverse of [`EventDb::render_level`], used by the query language for
    /// slice values. Dictionary levels resolve through their dictionaries;
    /// raw integers parse numerically; time levels parse a timestamp (or a
    /// plain `YYYY-MM-DD` for day granularity and coarser) and bucket it.
    pub fn parse_level_value(&self, attr: AttrId, level: usize, s: &str) -> Result<LevelValue> {
        let a = attr as usize;
        let bad = || Error::BadLiteral(s.to_owned());
        match (&self.cols[a], &self.hierarchies[a]) {
            (ColumnData::Str { dict, .. }, h) => {
                if level == 0 {
                    return dict.lookup(s).map(|v| v as LevelValue).ok_or_else(bad);
                }
                if let Hierarchy::Dict(dh) = h {
                    if let Some(l) = dh.levels.get(level - 1) {
                        return l.dict.lookup(s).map(|v| v as LevelValue).ok_or_else(bad);
                    }
                }
                Err(self.unknown_level_err(attr, level))
            }
            (ColumnData::Int(_), h) => {
                if level == 0 {
                    return s.parse::<i64>().map(|v| v as LevelValue).map_err(|_| bad());
                }
                if let Hierarchy::Int(ih) = h {
                    if let Some(l) = ih.levels.get(level - 1) {
                        return l.dict.lookup(s).map(|v| v as LevelValue).ok_or_else(bad);
                    }
                }
                Err(self.unknown_level_err(attr, level))
            }
            (ColumnData::Time(_), h) => {
                let t = crate::time::parse_timestamp(s).ok_or_else(bad)?;
                match h {
                    Hierarchy::Time(th) => th
                        .levels
                        .get(level)
                        .map(|g| g.bucket(t) as LevelValue)
                        .ok_or_else(|| self.unknown_level_err(attr, level)),
                    _ if level == 0 => Ok(t as LevelValue),
                    _ => Err(self.unknown_level_err(attr, level)),
                }
            }
            (ColumnData::Float(_), _) => s.parse::<f64>().map(|v| v.to_bits()).map_err(|_| bad()),
        }
    }

    /// The domain size of `attr` at `level`, when finitely enumerable
    /// (dictionary-backed levels). `None` for raw integers and time buckets.
    pub fn level_domain_size(&self, attr: AttrId, level: usize) -> Option<usize> {
        let a = attr as usize;
        match (&self.cols[a], &self.hierarchies[a]) {
            (ColumnData::Str { dict, .. }, h) => {
                if level == 0 {
                    Some(dict.len())
                } else if let Hierarchy::Dict(dh) = h {
                    dh.levels.get(level - 1).map(|l| l.dict.len())
                } else {
                    None
                }
            }
            (ColumnData::Int(_), Hierarchy::Int(ih)) if level > 0 => {
                ih.levels.get(level - 1).map(|l| l.dict.len())
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Hierarchy attachment
    // ------------------------------------------------------------------

    /// Adds a level on top of a string attribute's hierarchy. `f` maps each
    /// value of the current top level to its parent name. The first call
    /// creates the hierarchy over the base dictionary.
    pub fn attach_str_level(
        &mut self,
        attr: AttrId,
        level_name: &str,
        mut f: impl FnMut(&str) -> String,
    ) -> Result<()> {
        let a = attr as usize;
        let child_dict: Dictionary = match (&self.cols[a], &self.hierarchies[a]) {
            (ColumnData::Str { dict, .. }, Hierarchy::None) => dict.clone(),
            (ColumnData::Str { dict, .. }, Hierarchy::Dict(dh)) => match dh.levels.last() {
                Some(top) => top.dict.clone(),
                None => dict.clone(),
            },
            (_, Hierarchy::Int(ih)) => match ih.levels.last() {
                Some(top) => top.dict.clone(),
                None => {
                    return Err(Error::InvalidOperation(
                        "attach_int_level must create the first level over an int column".into(),
                    ))
                }
            },
            _ => {
                return Err(Error::InvalidOperation(format!(
                    "cannot attach a dictionary level to `{}`",
                    self.schema.column(attr).name
                )))
            }
        };
        let mut level = DictLevel {
            name: level_name.to_owned(),
            dict: Dictionary::new(),
            parent_of: vec![UNMAPPED; child_dict.len()],
        };
        for (id, name) in child_dict.iter() {
            let parent = f(name);
            level.parent_of[id as usize] = level.dict.intern(&parent);
        }
        validate_level(&self.schema.column(attr).name, &level, &child_dict)?;
        match &mut self.hierarchies[a] {
            h @ Hierarchy::None => {
                *h = Hierarchy::Dict(DictHierarchy {
                    levels: vec![level],
                })
            }
            Hierarchy::Dict(dh) => dh.levels.push(level),
            Hierarchy::Int(ih) => ih.levels.push(level),
            Hierarchy::Time(_) => unreachable!("rejected above"),
        }
        self.version += 1;
        Ok(())
    }

    /// Creates the first hierarchy level over an integer attribute; `f` maps
    /// each distinct integer present in the column to a group name.
    pub fn attach_int_level(
        &mut self,
        attr: AttrId,
        level_name: &str,
        mut f: impl FnMut(i64) -> String,
    ) -> Result<()> {
        let a = attr as usize;
        let data = match &self.cols[a] {
            ColumnData::Int(v) => v,
            _ => {
                return Err(Error::InvalidOperation(format!(
                    "attach_int_level requires an int column, `{}` is not one",
                    self.schema.column(attr).name
                )))
            }
        };
        if !matches!(self.hierarchies[a], Hierarchy::None) {
            return Err(Error::InvalidOperation(format!(
                "`{}` already has a hierarchy",
                self.schema.column(attr).name
            )));
        }
        let mut ih = IntHierarchy::default();
        let mut level = DictLevel {
            name: level_name.to_owned(),
            ..Default::default()
        };
        for &raw in data {
            ih.base_to_first
                .entry(raw)
                .or_insert_with(|| level.dict.intern(&f(raw)));
        }
        ih.levels.push(level);
        self.hierarchies[a] = Hierarchy::Int(ih);
        self.version += 1;
        Ok(())
    }

    /// Registers a mapping for an integer value unseen when
    /// [`EventDb::attach_int_level`] ran (incremental update support).
    pub fn add_int_mapping(&mut self, attr: AttrId, raw: i64, parent: &str) -> Result<()> {
        match &mut self.hierarchies[attr as usize] {
            Hierarchy::Int(ih) => {
                let level = ih
                    .levels
                    .first_mut()
                    .expect("int hierarchy always has a first level");
                let id = level.dict.intern(parent);
                ih.base_to_first.insert(raw, id);
                self.version += 1;
                Ok(())
            }
            _ => Err(Error::NoHierarchy(self.schema.column(attr).name.clone())),
        }
    }

    /// Extends a string attribute's first hierarchy level with mappings for
    /// base values interned after the level was attached (incremental
    /// update support). `f` maps the new base value to its parent name.
    pub fn extend_str_level(
        &mut self,
        attr: AttrId,
        mut f: impl FnMut(&str) -> String,
    ) -> Result<()> {
        let a = attr as usize;
        let dict = match &self.cols[a] {
            ColumnData::Str { dict, .. } => dict.clone(),
            _ => {
                return Err(Error::InvalidOperation(format!(
                    "`{}` is not a string column",
                    self.schema.column(attr).name
                )))
            }
        };
        match &mut self.hierarchies[a] {
            Hierarchy::Dict(dh) => {
                let level = dh.levels.first_mut().expect("non-empty hierarchy");
                for (id, name) in dict.iter().skip(level.parent_of.len()) {
                    let parent = f(name);
                    debug_assert_eq!(id as usize, level.parent_of.len());
                    level.parent_of.push(level.dict.intern(&parent));
                }
                self.version += 1;
                Ok(())
            }
            _ => Err(Error::NoHierarchy(self.schema.column(attr).name.clone())),
        }
    }

    /// Attaches a functional time hierarchy to a time attribute.
    pub fn set_time_hierarchy(&mut self, attr: AttrId, th: TimeHierarchy) -> Result<()> {
        if !matches!(self.cols[attr as usize], ColumnData::Time(_)) {
            return Err(Error::InvalidOperation(format!(
                "`{}` is not a time column",
                self.schema.column(attr).name
            )));
        }
        if th.levels.first() != Some(&crate::hierarchy::TimeGranularity::Raw) {
            return Err(Error::InvalidOperation(
                "time hierarchies must start at the raw level".into(),
            ));
        }
        self.hierarchies[attr as usize] = Hierarchy::Time(th);
        self.version += 1;
        Ok(())
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.cols.iter().map(ColumnData::heap_bytes).sum()
    }

    fn unknown_level_err(&self, attr: AttrId, level: usize) -> Error {
        Error::UnknownLevel {
            attribute: self.schema.column(attr).name.clone(),
            level: format!("#{level}"),
        }
    }

    fn incomplete_err(&self, attr: AttrId, level: usize, v: LevelValue, from: usize) -> Error {
        Error::IncompleteHierarchy {
            attribute: self.schema.column(attr).name.clone(),
            level: self.level_name(attr, level),
            value: self.render_level(attr, from, v),
        }
    }
}

/// A fluent constructor for [`EventDb`]: define columns, then build.
#[derive(Debug, Default)]
pub struct EventDbBuilder {
    columns: Vec<crate::schema::ColumnDef>,
}

impl EventDbBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dimension column.
    pub fn dimension(mut self, name: &str, ctype: ColumnType) -> Self {
        self.columns
            .push(crate::schema::ColumnDef::dimension(name, ctype));
        self
    }

    /// Adds a measure column.
    pub fn measure(mut self, name: &str, ctype: ColumnType) -> Self {
        self.columns
            .push(crate::schema::ColumnDef::measure(name, ctype));
        self
    }

    /// Builds the (empty) database.
    pub fn build(self) -> Result<EventDb> {
        Ok(EventDb::new(Schema::new(self.columns)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::timestamp;

    fn transit_db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("time", ColumnType::Time)
            .dimension("card-id", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .measure("amount", ColumnType::Float)
            .build()
            .unwrap();
        db.set_time_hierarchy(0, TimeHierarchy::time_day_week())
            .unwrap();
        let rows = [
            (timestamp(2007, 10, 1, 0, 1, 0), 688, "Glenmont", "in", 0.0),
            (
                timestamp(2007, 10, 1, 0, 2, 0),
                688,
                "Pentagon",
                "out",
                -2.0,
            ),
            (
                timestamp(2007, 10, 2, 9, 0, 0),
                23456,
                "Pentagon",
                "in",
                0.0,
            ),
            (
                timestamp(2007, 10, 2, 9, 40, 0),
                23456,
                "Wheaton",
                "out",
                -3.5,
            ),
        ];
        for (t, c, l, a, m) in rows {
            db.push_row(&[
                Value::Time(t),
                Value::Int(c),
                Value::from(l),
                Value::from(a),
                Value::Float(m),
            ])
            .unwrap();
        }
        db.set_base_level_name(2, "station");
        db.attach_str_level(2, "district", |s| {
            if s == "Pentagon" || s == "Clarendon" {
                "D10".into()
            } else {
                "D20".into()
            }
        })
        .unwrap();
        db.set_base_level_name(1, "individual");
        db.attach_int_level(1, "fare-group", |id| {
            if id < 1000 {
                "regular".into()
            } else {
                "student".into()
            }
        })
        .unwrap();
        db
    }

    #[test]
    fn push_and_read_back() {
        let db = transit_db();
        assert_eq!(db.len(), 4);
        assert_eq!(db.value(0, 2), Value::from("Glenmont"));
        assert_eq!(db.value(1, 4), Value::Float(-2.0));
        assert_eq!(db.int(2, 1), Some(23456));
        assert_eq!(db.float(3, 4), Some(-3.5));
        assert!(db.heap_bytes() > 0);
    }

    #[test]
    fn arity_and_type_checks() {
        let mut db = transit_db();
        assert!(matches!(
            db.push_row(&[Value::Int(1)]),
            Err(Error::ArityMismatch { .. })
        ));
        let err = db
            .push_row(&[
                Value::from("not-a-time"),
                Value::Int(1),
                Value::from("X"),
                Value::from("in"),
                Value::Float(0.0),
            ])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert_eq!(db.len(), 4, "failed pushes must not mutate");
    }

    #[test]
    fn time_literals_accepted_for_time_columns() {
        let mut db = transit_db();
        db.push_row(&[
            Value::from("2007-10-03T08:00"),
            Value::Int(99),
            Value::from("Wheaton"),
            Value::from("in"),
            Value::Int(0),
        ])
        .unwrap();
        assert_eq!(db.int(4, 0), Some(timestamp(2007, 10, 3, 8, 0, 0)));
    }

    #[test]
    fn level_resolution() {
        let db = transit_db();
        assert_eq!(db.level_by_name(2, "station").unwrap(), 0);
        assert_eq!(db.level_by_name(2, "district").unwrap(), 1);
        assert_eq!(db.level_by_name(1, "individual").unwrap(), 0);
        assert_eq!(db.level_by_name(1, "fare-group").unwrap(), 1);
        assert_eq!(db.level_by_name(0, "day").unwrap(), 1);
        assert_eq!(db.level_by_name(0, "week").unwrap(), 2);
        assert_eq!(db.level_by_name(0, "time").unwrap(), 0);
        assert!(db.level_by_name(2, "galaxy").is_err());
    }

    #[test]
    fn value_at_level_and_render() {
        let db = transit_db();
        // Pentagon and Clarendon share district D10; Glenmont is D20.
        let glen_d = db.value_at_level(0, 2, 1).unwrap();
        let pent_d = db.value_at_level(1, 2, 1).unwrap();
        assert_ne!(glen_d, pent_d);
        assert_eq!(db.render_level(2, 1, pent_d), "D10");
        assert_eq!(
            db.render_level(2, 0, db.value_at_level(0, 2, 0).unwrap()),
            "Glenmont"
        );
        // Fare groups: 688 is regular, 23456 is regular too (both even).
        let fg = db.value_at_level(0, 1, 1).unwrap();
        assert_eq!(db.render_level(1, 1, fg), "regular");
        // Day buckets.
        let d0 = db.value_at_level(0, 0, 1).unwrap();
        let d2 = db.value_at_level(2, 0, 1).unwrap();
        assert_eq!(d2 as i64 - d0 as i64, 1);
        assert_eq!(db.render_level(0, 1, d0), "2007-10-01");
    }

    #[test]
    fn map_up_matches_direct_bucketing() {
        let db = transit_db();
        let station = db.value_at_level(1, 2, 0).unwrap();
        let district = db.value_at_level(1, 2, 1).unwrap();
        assert_eq!(db.map_up(2, 0, station, 1).unwrap(), district);
        let raw = db.value_at_level(0, 0, 0).unwrap();
        let week = db.value_at_level(0, 0, 2).unwrap();
        assert_eq!(db.map_up(0, 0, raw, 2).unwrap(), week);
        let day = db.value_at_level(0, 0, 1).unwrap();
        assert_eq!(db.map_up(0, 1, day, 2).unwrap(), week);
        assert!(db.map_up(0, 2, week, 1).is_err());
    }

    #[test]
    fn domain_sizes() {
        let db = transit_db();
        assert_eq!(db.level_domain_size(2, 0), Some(3)); // 3 stations seen
        assert_eq!(db.level_domain_size(2, 1), Some(2)); // 2 districts
        assert_eq!(db.level_domain_size(1, 1), Some(2)); // 2 fare groups
        assert_eq!(db.level_domain_size(0, 1), None); // day buckets unbounded
        assert_eq!(db.level_domain_size(1, 0), None); // raw ints unbounded
    }

    #[test]
    fn stacked_str_levels() {
        let mut db = transit_db();
        db.attach_str_level(2, "region", |d| format!("R-{}", &d[..2]))
            .unwrap();
        assert_eq!(db.level_count(2), 3);
        let region = db.value_at_level(0, 2, 2).unwrap();
        assert_eq!(db.render_level(2, 2, region), "R-D2");
    }

    #[test]
    fn extend_str_level_after_append() {
        let mut db = transit_db();
        db.push_row(&[
            Value::Time(timestamp(2007, 10, 4, 0, 0, 0)),
            Value::Int(1),
            Value::from("Deanwood"), // new station, unmapped
            Value::from("in"),
            Value::Float(0.0),
        ])
        .unwrap();
        assert!(db.value_at_level(4, 2, 1).is_err());
        db.extend_str_level(2, |_| "D30".into()).unwrap();
        let v = db.value_at_level(4, 2, 1).unwrap();
        assert_eq!(db.render_level(2, 1, v), "D30");
    }

    #[test]
    fn int_mapping_extension() {
        let mut db = transit_db();
        db.push_row(&[
            Value::Time(timestamp(2007, 10, 4, 0, 0, 0)),
            Value::Int(777_777),
            Value::from("Wheaton"),
            Value::from("in"),
            Value::Float(0.0),
        ])
        .unwrap();
        assert!(db.value_at_level(4, 1, 1).is_err());
        db.add_int_mapping(1, 777_777, "senior").unwrap();
        let v = db.value_at_level(4, 1, 1).unwrap();
        assert_eq!(db.render_level(1, 1, v), "senior");
        assert_eq!(db.level_domain_size(1, 1), Some(3));
    }

    #[test]
    fn parse_level_value_inverts_render() {
        let db = transit_db();
        // Station and district.
        let v = db.parse_level_value(2, 0, "Pentagon").unwrap();
        assert_eq!(db.render_level(2, 0, v), "Pentagon");
        let d = db.parse_level_value(2, 1, "D10").unwrap();
        assert_eq!(db.render_level(2, 1, d), "D10");
        // Day bucket from a plain date.
        let day = db.parse_level_value(0, 1, "2007-10-01").unwrap();
        assert_eq!(db.render_level(0, 1, day), "2007-10-01");
        // Card id and fare group.
        assert_eq!(db.parse_level_value(1, 0, "688").unwrap(), 688);
        let fg = db.parse_level_value(1, 1, "regular").unwrap();
        assert_eq!(db.render_level(1, 1, fg), "regular");
        // Unknown values error.
        assert!(db.parse_level_value(2, 0, "Atlantis").is_err());
        assert!(db.parse_level_value(1, 0, "not-a-number").is_err());
    }

    #[test]
    fn nan_floats_sort_as_a_total_order() {
        // One cluster of 5,000 events whose sort key is NaN every third
        // row: a comparator that calls NaN `Equal` to everything is not a
        // total order, and the standard sort panics on it.
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .measure("score", ColumnType::Float)
            .build()
            .unwrap();
        for i in 0..5_000i64 {
            let score = if i % 3 == 0 {
                f64::NAN
            } else {
                ((i * 7919) % 1000) as f64
            };
            db.push_row(&[Value::Int(0), Value::Float(score)]).unwrap();
        }
        let spec = crate::SeqQuerySpec {
            filter: crate::Pred::True,
            cluster_by: vec![crate::AttrLevel::new(0, 0)],
            sequence_by: vec![crate::SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![],
        };
        let groups = crate::build_sequence_groups(&db, &spec).unwrap();
        let rows = &groups.iter_sequences().next().unwrap().rows;
        assert_eq!(rows.len(), 5_000);
        let scores: Vec<f64> = rows.iter().map(|&r| db.float(r, 1).unwrap()).collect();
        assert!(scores.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        // NaNs sort last, in row order.
        assert!(scores[..3_333].iter().all(|s| !s.is_nan()));
        assert!(rows[3_333..].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn staged_rows_stay_invisible_until_published() {
        let mut db = transit_db();
        let (len, version) = (db.len(), db.version());
        let row = |station: &str| {
            vec![
                Value::Time(0),
                Value::Int(9),
                Value::from(station),
                Value::from("in"),
                Value::Float(1.0),
            ]
        };
        let staged = db.stage_rows(&[row("Wheaton"), row("Glenmont")]).unwrap();
        assert_eq!(staged, len as RowId..len as RowId + 2);
        assert_eq!((db.len(), db.version()), (len, version));
        assert_eq!(db.staged_rows(), staged);
        assert_eq!(db.staged_version(), version + 2);
        // The writer reads what it staged by row id.
        assert_eq!(db.value(staged.start + 1, 2), Value::from("Glenmont"));
        let copy = db.clone();
        assert_eq!((copy.len(), copy.version()), (len, version));
        assert!(
            copy.staged_rows().is_empty(),
            "a clone is the published state"
        );
        // A rejected batch stages nothing, even after valid rows.
        assert!(db
            .stage_rows(&[row("Wheaton"), vec![Value::Int(1)]])
            .is_err());
        assert_eq!(db.staged_rows(), staged);
        assert_eq!(db.publish(), version + 2);
        assert_eq!((db.len(), db.version()), (len + 2, version + 2));
        assert!(db.staged_rows().is_empty());
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut db = transit_db();
        let v = db.version();
        db.push_row(&[
            Value::Time(0),
            Value::Int(0),
            Value::from("Wheaton"),
            Value::from("in"),
            Value::Float(0.0),
        ])
        .unwrap();
        assert!(db.version() > v);
    }
}
