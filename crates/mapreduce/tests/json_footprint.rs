//! What a parsed query reply costs the heap, measured across the `parse`
//! call by the workspace's counting allocator.

use std::fmt::Write as _;

use mwsj_heapcount::{measure, Counting};
use mwsj_mapreduce::json::{self, Json};

#[global_allocator]
static HEAP: Counting = Counting;

const ROWS: usize = 20_000;

/// A reply shaped as the server renders it: `ROWS` arity-3 tuples.
fn reply() -> String {
    let mut text = format!(
        "{{\"ok\":true,\"cached\":false,\"algorithm\":\"map-side\",\"tuple_count\":{ROWS},\"tuples\":["
    );
    for r in 0..ROWS {
        let sep = if r == 0 { "" } else { "," };
        write!(text, "{sep}[{r},{},{}]", (r * 7) % ROWS, (r * 13) % ROWS).unwrap();
    }
    text.push_str("],\"counters\":[],\"wall_ms\":41.250,\"fingerprint\":\"00000000000000ab\"}");
    text
}

#[test]
fn a_reply_costs_one_allocation_per_row_and_no_growth_slack() {
    let text = reply();
    let (doc, heap) = measure(|| json::parse(&text).expect("the reply parses"));
    let (calls, peak) = (heap.requests, heap.peak);

    let rows = doc.get("tuples").and_then(Json::as_arr).expect("tuples");
    assert_eq!(rows.len(), ROWS);
    assert_eq!(rows[ROWS - 1].as_arr().map(<[Json]>::len), Some(3));

    // (a) A row is one slice; the stacks' growth, the keys, the short
    // strings and the containers around the rows are a constant.
    assert!(
        (ROWS..=ROWS + 64).contains(&calls),
        "{calls} allocations for {ROWS} rows"
    );
    // (b) A row keeps a 24-B value in the tuple array and a 3 × 24-B
    // slice of its own. While the rows are parsed their values sit on a
    // doubling stack, whose slack is the one overhead allowed beyond a
    // small constant.
    let slack = (ROWS.next_power_of_two() - ROWS) * std::mem::size_of::<Json>();
    let bound = ROWS * 96 + slack + 4096;
    assert!(
        peak <= bound,
        "peak {peak} B of live requests while parsing, bound {bound} B"
    );
}
