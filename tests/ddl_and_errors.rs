//! Error paths and DDL robustness: malformed statements, invalid index
//! definitions, unknown names — everything must surface as typed errors,
//! never panics.

use aplus::datagen::build_financial_graph;
use aplus::{Database, QueryError};

fn db() -> Database {
    Database::new(build_financial_graph().graph).unwrap()
}

#[test]
fn syntax_errors_are_reported_with_position() {
    let db = db();
    for bad in [
        "",
        "MATCH",
        "MATCH a-[r->b",
        "MATCH a-[r]->b WHERE",
        "MATCH a-[r]->b WHERE a.name 'Alice'",
        "MATCH a-[r]->b WHERE a.name = 'unterminated",
        "SELECT * FROM t",
        "MATCH a-[r]->b extra tokens here",
    ] {
        match db.count(bad) {
            Err(QueryError::Syntax { .. }) => {}
            other => panic!("{bad:?} should be a syntax error, got {other:?}"),
        }
    }
}

#[test]
fn unknown_variables_and_conflicts() {
    let db = db();
    assert!(matches!(
        db.count("MATCH a-[r]->b WHERE zz.amt = 1"),
        Err(QueryError::UnknownVariable(_))
    ));
    // Same name used as vertex and edge.
    assert!(matches!(
        db.count("MATCH a-[a]->b"),
        Err(QueryError::VariableRoleConflict(_))
    ));
    // Conflicting labels on the same variable.
    assert!(matches!(
        db.count("MATCH (a:Account)-[r]->b, (a:Customer)-[s]->c"),
        Err(QueryError::VariableRoleConflict(_))
    ));
}

#[test]
fn disconnected_patterns_rejected() {
    let db = db();
    assert!(matches!(
        db.count("MATCH a-[r]->b, c-[s]->d"),
        Err(QueryError::DisconnectedPattern)
    ));
}

#[test]
fn unknown_labels_match_nothing() {
    let db = db();
    assert_eq!(db.count("MATCH a-[r:NoSuchLabel]->b").unwrap(), 0);
    assert_eq!(db.count("MATCH (a:Ghost)-[r:W]->b").unwrap(), 0);
}

#[test]
fn unknown_property_is_an_error() {
    let db = db();
    assert!(matches!(
        db.count("MATCH a-[r]->b WHERE r.nope = 1"),
        Err(QueryError::Graph(_))
    ));
}

#[test]
fn ddl_validation_errors() {
    let mut db = db();
    // Partitioning on a non-categorical property.
    let err = db
        .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.amt SORT BY vnbr.ID")
        .unwrap_err();
    assert!(err.to_string().contains("categorical"), "{err}");
    // vnbr.ID as a partition key.
    assert!(db
        .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY vnbr.ID")
        .is_err());
    // eadj.label as a sort key.
    assert!(db
        .ddl("RECONFIGURE PRIMARY INDEXES SORT BY eadj.label")
        .is_err());
    // 1-hop pattern must be vs-[eadj]->vd.
    assert!(db
        .ddl("CREATE 1-HOP VIEW V1 MATCH x-[e]->y INDEX AS FW")
        .is_err());
    // 2-hop views must reference both edges.
    let err = db
        .ddl("CREATE 2-HOP VIEW V2 MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eadj.amt > 1")
        .unwrap_err();
    assert!(matches!(err, QueryError::Index(_)));
    // Duplicate names.
    db.ddl("CREATE 1-HOP VIEW Dup MATCH vs-[eadj]->vd INDEX AS FW SORT BY vnbr.ID")
        .unwrap();
    let err = db
        .ddl("CREATE 1-HOP VIEW Dup MATCH vs-[eadj]->vd INDEX AS BW SORT BY vnbr.ID")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn ddl_with_unknown_entities() {
    let mut db = db();
    // Unknown property in keys.
    assert!(db
        .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.nope")
        .is_err());
    // Unknown entity keyword in view conditions.
    assert!(db
        .ddl("CREATE 1-HOP VIEW X MATCH vs-[eadj]->vd WHERE bogus.amt > 1 INDEX AS FW")
        .is_err());
}

#[test]
fn too_many_sort_keys_rejected() {
    let mut db = db();
    let err = db
        .ddl(
            "RECONFIGURE PRIMARY INDEXES \
             SORT BY vnbr.ID, vnbr.city, eadj.amt, eadj.date",
        )
        .unwrap_err();
    assert!(err.to_string().contains("sort keys"), "{err}");
}

#[test]
fn queries_survive_many_reconfigurations() {
    // Stress: alternate reconfigurations and index create/drop cycles; the
    // database must stay consistent throughout.
    let mut db = db();
    let q = "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'";
    let expect = db.count(q).unwrap();
    for round in 0..5 {
        db.ddl(
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.city",
        )
        .unwrap();
        assert_eq!(db.count(q).unwrap(), expect, "round {round} (a)");
        db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID")
            .unwrap();
        let name = format!("Idx{round}");
        db.ddl(&format!(
            "CREATE 1-HOP VIEW {name} MATCH vs-[eadj]->vd \
             WHERE eadj.amt > {} INDEX AS FW-BW SORT BY vnbr.ID",
            round * 10
        ))
        .unwrap();
        assert_eq!(db.count(q).unwrap(), expect, "round {round} (b)");
    }
    // Drop them all.
    let (store, _) = db.store_and_graph_mut();
    for round in 0..5 {
        store.drop_index(&format!("Idx{round}")).unwrap();
    }
    assert_eq!(db.count(q).unwrap(), expect);
}

#[test]
fn empty_graph_queries() {
    let db = Database::new(aplus::Graph::new()).unwrap();
    // No vertices: bind fails on the unknown label, and an unlabeled query
    // runs on an empty store.
    assert_eq!(db.count("MATCH a-[r]->b").unwrap_or(0), 0);
}

/// The optimizer tracks query edges and predicate conjuncts as the bits of
/// a `u64`: 64 of each plan and count, the 65th is a structured error (it
/// used to alias bit 0, dropping a conjunct: the 65-conjunct query below
/// counted 9 instead of 0).
#[test]
fn query_edges_and_conjuncts_are_bounded() {
    use aplus::query::query::{MAX_QUERY_EDGES, MAX_QUERY_PREDICATES};
    let db = db();
    let conjuncts = |n: usize| {
        let mut q = String::from("MATCH a-[r:W]->b WHERE ");
        q.push_str(&"a.ID >= 0 AND ".repeat(n - 1));
        q.push_str("r.amt < -1");
        q
    };
    assert_eq!(db.count(&conjuncts(MAX_QUERY_PREDICATES)).unwrap(), 0);
    assert_eq!(
        db.count(&conjuncts(MAX_QUERY_PREDICATES + 1)),
        Err(QueryError::TooManyPredicates { got: 65, max: 64 })
    );
    let parallel = |n: usize| {
        let edges: Vec<String> = (0..n).map(|i| format!("a-[r{i}]->b")).collect();
        format!("MATCH {}", edges.join(", "))
    };
    assert_eq!(db.count(&parallel(MAX_QUERY_EDGES)).unwrap(), 0);
    assert_eq!(
        db.count(&parallel(MAX_QUERY_EDGES + 1)),
        Err(QueryError::TooManyQueryEdges { got: 65, max: 64 })
    );
}

/// No operator binds a single-hop edge from a vertex to itself, so such a
/// pattern is refused; a variable-length one is checked.
#[test]
fn single_hop_self_loops_rejected() {
    let db = db();
    assert_eq!(
        db.count("MATCH a-[r:W]->a"),
        Err(QueryError::SelfLoop("a".into()))
    );
    assert!(db.count("MATCH a-[:W*1..2]->a").is_ok());
}
