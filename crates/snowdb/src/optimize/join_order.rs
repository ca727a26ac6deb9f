//! Cost-based join reordering.
//!
//! The rule-based passes leave two plan shapes that explode at execution:
//! JSONiq successive-`for` clauses translate to left-deep cross-join chains,
//! and raw SSB SQL (`FROM` list + `WHERE`) arrives as cross joins whose
//! predicates pushdown folds into `ON` conditions in *syntactic* order —
//! neither reflects table sizes or key selectivities. This pass:
//!
//! 1. flattens every maximal cluster of `Inner`/`Cross` joins into its base
//!    relations plus the pooled `ON` conjuncts (rebased to the cluster's
//!    concatenated column space);
//! 2. greedily rebuilds a left-deep join tree: the cheapest connected pair
//!    first (orienting the larger side as the probe/left input and the
//!    smaller as the hash build/right input), then repeatedly the relation
//!    whose addition yields the cheapest partial plan, preferring relations
//!    connected by an equi-predicate so star schemas chain dimension by
//!    dimension instead of cross-producting;
//! 3. places each pooled conjunct at the first join whose inputs cover its
//!    columns, and restores the original output column order with a final
//!    projection when the chosen order permuted it.
//!
//! Soundness: only `Inner`/`Cross` joins participate (they commute and
//! associate freely); a cluster, with every join in it, is left as written
//! unless every pooled conjunct is non-volatile and error-free — moving a
//! conjunct to an earlier join makes it run on row combinations the original
//! plan never evaluated it on, and reordering the joins below it changes
//! which row it raises on first and how `SEQ8()` numbers the rows. The same
//! holds for a cluster directly under a filter that raises or numbers rows,
//! whose conjuncts stay there by the movement rule (`super::may_leave`).
//! The costing never changes semantics:
//! the differential oracle runs every corpus query with this pass on and off.

use crate::optimize::cost::{estimate, join_estimate, Est};
use crate::optimize::{conjoin, error_free};
use crate::plan::{conjuncts, into_conjuncts, split_join_on, Field, Node, NodeKind, PExpr};
use crate::sql::JoinKind;

/// Minimum relations in a cluster before reordering kicks in. Two-relation
/// joins are left as written: the executor already hash-joins them, and
/// preserving the authored build/probe orientation keeps small plans stable.
const MIN_RELATIONS: usize = 3;

/// Reorders every eligible join cluster in the plan, bottom-up.
pub fn reorder_joins(node: Node) -> Node {
    // Eligibility is decided on a borrow, *before* the tree is consumed. A
    // conjunct that raises or numbers rows, in an ON of the cluster or in a
    // filter directly over it, keeps the whole cluster as written: it must
    // see the same row combinations in the same order (which row raises
    // first, which number `SEQ8()` gives each), so it never moves and no
    // join below it is reordered.
    match &node.kind {
        NodeKind::Filter { pred, .. } if raises_or_numbers(pred) => {
            return node.map_inputs(keep_cluster)
        }
        NodeKind::Join { kind: JoinKind::Inner | JoinKind::Cross, .. } => {}
        _ => return node.map_inputs(reorder_joins),
    }
    match cluster_size(&node) {
        None => return keep_cluster(node),
        // At most 64 relations: the predicate bitmask width.
        Some(rels) if !(MIN_RELATIONS..=64).contains(&rels) => {
            return node.map_inputs(reorder_joins)
        }
        Some(_) => {}
    }

    // Flatten the maximal Inner/Cross cluster rooted here.
    let fields = node.fields.clone();
    let mut rels: Vec<Node> = Vec::new();
    let mut preds: Vec<PExpr> = Vec::new();
    flatten_cluster(node, 0, &mut rels, &mut preds);

    let order = greedy_order(&rels, &preds);
    build_ordered(rels, preds, order, fields)
}

/// True when `p` can raise or numbers rows: it may not move to another join,
/// nor see the cluster's rows in another order.
fn raises_or_numbers(p: &PExpr) -> bool {
    p.is_volatile() || !error_free(p)
}

/// The number of base relations of the Inner/Cross join cluster rooted at
/// `node` (1 for any other node), or `None` when one of its ON conjuncts
/// raises or numbers rows.
fn cluster_size(node: &Node) -> Option<usize> {
    match &node.kind {
        NodeKind::Join { left, right, kind: JoinKind::Inner | JoinKind::Cross, on } => {
            if on.iter().flat_map(conjuncts).any(raises_or_numbers) {
                return None;
            }
            Some(cluster_size(left)? + cluster_size(right)?)
        }
        _ => Some(1),
    }
}

/// Keeps the `Inner`/`Cross` join cluster rooted at `node` as written,
/// reordering only inside its relations.
fn keep_cluster(node: Node) -> Node {
    match node.kind {
        NodeKind::Join { kind: JoinKind::Inner | JoinKind::Cross, .. } => {
            node.map_inputs(keep_cluster)
        }
        _ => reorder_joins(node),
    }
}

/// Recursively flattens `Inner`/`Cross` joins into `rels` (each child
/// recursively reordered) and pools `ON` conjuncts into `preds`, rebased by
/// `base` into the cluster's concatenated column space. Left-to-right DFS
/// keeps the concatenated relation columns in the original output order.
fn flatten_cluster(node: Node, base: usize, rels: &mut Vec<Node>, preds: &mut Vec<PExpr>) {
    match node.kind {
        NodeKind::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
        } => {
            let la = left.arity();
            flatten_cluster(*left, base, rels, preds);
            flatten_cluster(*right, base + la, rels, preds);
            let rebased = on.into_iter().flat_map(into_conjuncts).map(|p| p.map_cols(&|c| c + base));
            preds.extend(rebased);
        }
        kind => rels.push(reorder_joins(Node::new(kind, node.fields))),
    }
}

/// Starting cluster-column offset of each relation in original order.
fn rel_offsets(rels: &[Node]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(rels.len());
    let mut base = 0;
    for r in rels {
        offsets.push(base);
        base += r.arity();
    }
    offsets
}

/// The set of relations a predicate's columns touch, as a bitmask.
fn pred_rels(p: &PExpr, offsets: &[usize], total: usize) -> u64 {
    let mut cols = Vec::new();
    p.collect_cols(&mut cols);
    let mut mask = 0u64;
    for c in cols {
        let rel = offsets.iter().rposition(|&o| o <= c).unwrap_or(0);
        debug_assert!(c < offsets.get(rel + 1).copied().unwrap_or(total));
        mask |= 1 << rel;
    }
    mask
}

/// True when a join's `on` has a hash key the cost model has statistics for:
/// an equi pair whose two sides are bare columns.
fn keyed_on_columns(on: &PExpr, left_arity: usize) -> bool {
    let (equi, _) = split_join_on(on, left_arity);
    equi.iter().any(|pair| matches!(pair, (PExpr::Col(_), PExpr::Col(_))))
}

/// Greedy join-order search: returns the relation indices in join order.
fn greedy_order(rels: &[Node], preds: &[PExpr]) -> Vec<usize> {
    let n = rels.len();
    let cluster = Cluster::new(rels, preds);
    let ests: Vec<Est> = rels.iter().map(estimate).collect();

    // Score a candidate order prefix by what its left-deep plan would be:
    // whether its last relation joins on an equi-predicate, then cumulative
    // cost, cheaper being better.
    let score = |order: &[usize]| -> (bool, f64) {
        let (est, keyed) = cluster.estimate(&ests, order);
        (keyed, -est.cost)
    };

    // Seed: the cheapest pair, preferring pairs connected by an equi-pred.
    let mut best: Option<(Vec<usize>, (bool, f64))> = None;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let order = vec![i, j];
            let scored = score(&order);
            if best.as_ref().is_none_or(|(_, b)| scored > *b) {
                best = Some((order, scored));
            }
        }
    }
    let (mut order, _) = best.expect("cluster has >= 3 relations");

    // Grow: always append the relation with the cheapest resulting plan,
    // preferring connected relations to avoid intermediate cross products.
    while order.len() < n {
        let mut best: Option<(usize, (bool, f64))> = None;
        for j in 0..n {
            if order.contains(&j) {
                continue;
            }
            let mut cand = order.clone();
            cand.push(j);
            let scored = score(&cand);
            if best.as_ref().is_none_or(|(_, b)| scored > *b) {
                best = Some((j, scored));
            }
        }
        order.push(best.expect("unplaced relation exists").0);
    }
    order
}

/// A flattened cluster: its relations, their pooled predicates, and where
/// each relation's columns start in the cluster's concatenated column space.
struct Cluster<'a> {
    rels: &'a [Node],
    preds: &'a [PExpr],
    offsets: Vec<usize>,
    /// The relations each predicate reads, as a bitmask.
    masks: Vec<u64>,
    /// Total cluster columns.
    width: usize,
}

impl<'a> Cluster<'a> {
    fn new(rels: &'a [Node], preds: &'a [PExpr]) -> Cluster<'a> {
        let offsets = rel_offsets(rels);
        let width: usize = rels.iter().map(Node::arity).sum();
        let masks = preds.iter().map(|p| pred_rels(p, &offsets, width)).collect();
        Cluster { rels, preds, offsets, masks, width }
    }

    /// Walks the left-deep join of `order`: for each relation after the
    /// first, calls `join(relation, left arity, kind, on)` with the pooled
    /// predicates it is the first to cover, conjoined and renumbered to the
    /// join's column space (an `Inner` join, or `Cross` when there are
    /// none). Returns the cluster-column → output-column map (`usize::MAX`
    /// for columns of relations `order` does not reach).
    fn walk(
        &self,
        order: &[usize],
        mut join: impl FnMut(usize, usize, JoinKind, Option<PExpr>),
    ) -> Vec<usize> {
        let mut used = vec![false; self.preds.len()];
        let mut colmap = vec![usize::MAX; self.width];
        let mut placed: u64 = 0;
        let mut arity = 0;
        for (k, &j) in order.iter().enumerate() {
            for c in 0..self.rels[j].arity() {
                colmap[self.offsets[j] + c] = arity + c;
            }
            placed |= 1 << j;
            if k > 0 {
                // Predicates now fully covered join here.
                let mut on_parts = Vec::new();
                for (pi, p) in self.preds.iter().enumerate() {
                    if !used[pi] && self.masks[pi] & !placed == 0 {
                        used[pi] = true;
                        on_parts.push(p.clone().map_cols(&|c| colmap[c]));
                    }
                }
                let on = conjoin(on_parts);
                let kind = if on.is_some() { JoinKind::Inner } else { JoinKind::Cross };
                join(j, arity, kind, on);
            }
            arity += self.rels[j].arity();
        }
        // During greedy search `order` is a prefix, so predicates spanning
        // unplaced relations legitimately stay unused; the final assembly over
        // the full order places every predicate.
        debug_assert!(
            order.len() < self.rels.len() || used.iter().all(|&u| u),
            "every pooled predicate placed"
        );
        colmap
    }

    /// Builds the left-deep join tree for `order`, placing each pooled
    /// predicate at the first join covering its relations. Returns the tree
    /// plus the cluster-column → output-column map.
    fn assemble(&self, order: &[usize]) -> (Node, Vec<usize>) {
        let mut plan = self.rels[order[0]].clone();
        let colmap = self.walk(order, |j, _, kind, on| {
            let right = self.rels[j].clone();
            let fields: Vec<Field> = plan.fields.iter().chain(&right.fields).cloned().collect();
            let left = std::mem::replace(&mut plan, Node::new(NodeKind::Values, Vec::new()));
            plan = Node::new(
                NodeKind::Join { left: Box::new(left), right: Box::new(right), kind, on },
                fields,
            );
        });
        (plan, colmap)
    }

    /// `estimate(&self.assemble(order).0)`, and whether its top join is keyed
    /// on columns, folded from the relations' own estimates `ests` instead of
    /// building and walking the plan: a join's estimate depends only on its
    /// inputs' estimates and its ON condition.
    fn estimate(&self, ests: &[Est], order: &[usize]) -> (Est, bool) {
        let mut est = ests[order[0]].clone();
        let mut keyed = false;
        self.walk(order, |j, left_arity, kind, on| {
            keyed = on.as_ref().is_some_and(|on| keyed_on_columns(on, left_arity));
            est = join_estimate(&est, &ests[j], kind, on.as_ref(), left_arity);
        });
        (est, keyed)
    }
}

/// Materializes the chosen order and restores the original column order with
/// a projection when the permutation is not the identity.
fn build_ordered(
    rels: Vec<Node>,
    preds: Vec<PExpr>,
    order: Vec<usize>,
    fields: Vec<Field>,
) -> Node {
    let (plan, colmap) = Cluster::new(&rels, &preds).assemble(&order);
    if colmap.iter().enumerate().all(|(i, &c)| c == i) {
        return Node::new(plan.kind, fields);
    }
    let exprs: Vec<PExpr> = colmap.into_iter().map(PExpr::Col).collect();
    Node::new(NodeKind::Project { input: Box::new(plan), exprs }, fields)
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng, StdRng};

    use super::*;
    use crate::optimize::{fold_node, merge_projects, pushdown};
    use crate::storage::{ColumnDef, ColumnType};
    use crate::variant::Variant;
    use crate::Database;

    /// Loads `name` with `rows` random rows: an integer column per name in
    /// `ints` (values below `keys`), a string column per `(name, pool)`.
    fn load(
        db: &Database,
        rng: &mut StdRng,
        name: &str,
        rows: usize,
        keys: i64,
        ints: &[&str],
        strs: &[(&str, &[&str])],
    ) {
        let mut schema: Vec<ColumnDef> =
            ints.iter().map(|c| ColumnDef::new(*c, ColumnType::Int)).collect();
        schema.extend(strs.iter().map(|(c, _)| ColumnDef::new(*c, ColumnType::Str)));
        let data: Vec<Vec<Variant>> = (0..rows)
            .map(|_| {
                let mut row: Vec<Variant> =
                    ints.iter().map(|_| Variant::Int(rng.gen_range(1..=keys))).collect();
                row.extend(strs.iter().map(|(_, pool)| Variant::str(pool[rng.gen_range(0..pool.len())])));
                row
            })
            .collect();
        db.load_table(name, schema, data, 64).unwrap();
    }

    /// The SSB tables (the generator's schemas, random contents) and
    /// `tests/optimizer.rs`'s small star.
    fn db() -> Database {
        let db = Database::new();
        let rng = &mut StdRng::seed_from_u64(7);
        let regions: &[&str] = &["AMERICA", "ASIA", "EUROPE"];
        let nations: &[&str] = &["UNITED STATES", "CHINA", "UNITED KINGDOM"];
        let cities: &[&str] = &["UNITED KI1", "UNITED KI5", "CHINA    3"];
        load(
            &db,
            rng,
            "LINEORDER",
            400,
            20,
            &[
                "LO_ORDERKEY", "LO_LINENUMBER", "LO_CUSTKEY", "LO_PARTKEY", "LO_SUPPKEY",
                "LO_ORDERDATE", "LO_QUANTITY", "LO_EXTENDEDPRICE", "LO_ORDTOTALPRICE",
                "LO_DISCOUNT", "LO_REVENUE", "LO_SUPPLYCOST", "LO_TAX", "LO_COMMITDATE",
            ],
            &[("LO_SHIPMODE", &["AIR", "SHIP"])],
        );
        load(
            &db,
            rng,
            "DDATE",
            60,
            1998,
            &["D_DATEKEY", "D_YEAR", "D_YEARMONTHNUM", "D_MONTHNUMINYEAR", "D_WEEKNUMINYEAR", "D_DAYNUMINYEAR"],
            &[("D_YEARMONTH", &["Dec1997", "Jan1994"]), ("D_DAYOFWEEK", &["Monday", "Sunday"])],
        );
        load(
            &db,
            rng,
            "CUSTOMER",
            30,
            20,
            &["C_CUSTKEY"],
            &[("C_NAME", &["c"]), ("C_CITY", cities), ("C_NATION", nations), ("C_REGION", regions), ("C_MKTSEGMENT", &["AUTOMOBILE"])],
        );
        load(
            &db,
            rng,
            "SUPPLIER",
            10,
            20,
            &["S_SUPPKEY"],
            &[("S_NAME", &["s"]), ("S_CITY", cities), ("S_NATION", nations), ("S_REGION", regions)],
        );
        load(
            &db,
            rng,
            "PART",
            40,
            20,
            &["P_PARTKEY", "P_SIZE"],
            &[
                ("P_NAME", &["p"]),
                ("P_MFGR", &["MFGR#1", "MFGR#2"]),
                ("P_CATEGORY", &["MFGR#12", "MFGR#14"]),
                ("P_BRAND1", &["MFGR#2221", "MFGR#2239"]),
                ("P_COLOR", &["red"]),
            ],
        );
        load(&db, rng, "FACT", 400, 40, &["FA", "FB", "M"], &[]);
        load(&db, rng, "DIMA", 40, 40, &["AK", "AV"], &[]);
        load(&db, rng, "DIMB", 8, 8, &["BK", "BV"], &[]);
        db
    }

    /// Every reorderable cluster of `sql`'s plan as the reorderer receives it.
    fn clusters(db: &Database, sql: &str) -> Vec<(Vec<Node>, Vec<PExpr>)> {
        fn find(node: &Node, out: &mut Vec<(Vec<Node>, Vec<PExpr>)>) {
            if cluster_size(node).is_some_and(|n| (MIN_RELATIONS..=64).contains(&n)) {
                let (mut rels, mut preds) = (Vec::new(), Vec::new());
                flatten_cluster(node.clone(), 0, &mut rels, &mut preds);
                out.push((rels, preds));
            }
            node.kind.inputs().into_iter().for_each(|n| find(n, out));
        }
        let query = crate::sql::parse_query(sql).unwrap();
        let mut node = crate::plan::bind_query(&query, &*db.snapshot()).unwrap();
        fold_node(&mut node);
        let node = pushdown(merge_projects(node));
        let mut out = Vec::new();
        find(&node, &mut out);
        out
    }

    /// Scoring a prefix from per-relation estimates gives, bit for bit, what
    /// estimating the assembled prefix plan gives, so no chosen order changes.
    #[test]
    fn folded_estimates_are_the_assembled_plans_estimates() {
        let db = db();
        let star = [
            "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
             WHERE fact.fa = dima.ak AND fact.fb = dimb.bk",
            "SELECT dima.av, fact.m, dimb.bv FROM dima CROSS JOIN dimb CROSS JOIN fact \
             WHERE fact.fa = dima.ak AND fact.fb = dimb.bk AND dima.av < 50 ORDER BY fact.m",
            "SELECT COUNT(*) FROM dima CROSS JOIN dimb CROSS JOIN fact \
             WHERE fact.fa = dima.ak AND fact.fb = dimb.bk AND 100 / dima.av > 0",
        ];
        let texts: Vec<String> =
            ssb::queries().into_iter().map(|q| q.sql).chain(star.map(String::from)).collect();
        let rng = &mut StdRng::seed_from_u64(42);
        let mut checked = 0;
        for sql in &texts {
            // The Q1 family joins two relations: below the reorderer.
            for (rels, preds) in &clusters(&db, sql) {
                let cluster = Cluster::new(rels, preds);
                let ests: Vec<Est> = rels.iter().map(estimate).collect();
                for _ in 0..12 {
                    let mut order: Vec<usize> = (0..rels.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    for len in 2..=order.len() {
                        let prefix = &order[..len];
                        let (folded, keyed) = cluster.estimate(&ests, prefix);
                        let (plan, _) = cluster.assemble(prefix);
                        let built = estimate(&plan);
                        let NodeKind::Join { left, on, .. } = &plan.kind else { unreachable!() };
                        let built_keyed = on.as_ref().is_some_and(|on| keyed_on_columns(on, left.arity()));
                        assert_eq!(
                            (folded.rows.to_bits(), folded.cost.to_bits(), folded.cols.len(), keyed),
                            (built.rows.to_bits(), built.cost.to_bits(), built.cols.len(), built_keyed),
                            "{sql}: prefix {prefix:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 500, "{checked}");
    }
}
