//! ungoverned fixture: a REGEX dispatch that forms its sequence groups and
//! builds its cuboid outside the session's governor — both calls (lines 10
//! and 13) fire. Never compiled — scanned by `tests/solint_fixtures.rs`.

fn dispatch_regex_query(ctx: &mut SessionCtx, text: &str) -> Result<Response, Fail> {
    let engine = ctx.session.engine_arc();
    let db = engine.db();
    let q = solap_query::parse_regex_query(&db, text)?;
    let start = std::time::Instant::now();
    let groups = solap_eventdb::build_sequence_groups(&db, &q.seq)?;
    let mut meter = solap_core::stats::ScanMeter::new();
    let cuboid =
        solap_core::regexq::regex_cuboid(&db, &groups, &q.template, q.restriction, &mut meter)?;
    let table = cuboid.tabulate(&db, 15, true);
    ctx.label(format!("REGEX {}", q.template.render()));
    Ok(Response::ok(format!(
        "{} cells via regex/CB in {:?} ({} sequences scanned)\n{table}",
        cuboid.len(),
        start.elapsed(),
        meter.count()
    )))
}
