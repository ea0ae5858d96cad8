//! Allocation pin and golden bytes for the wire codec. `encode` writes
//! each envelope into one string allocated at its exact size, whatever
//! its shape; `decode` copies nothing but the envelope's own strings and
//! vectors. A tree of owned names, attributes and texts, or a string
//! grown as it is written, makes the counts larger. Every shape's bytes
//! are pinned to what the codec wrote before it wrote in one pass.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use promises_wire::{
    decode, encode, ActionRequest, ActionResponse, EnvEntry, EnvRef, Envelope, EnvironmentHeader,
    PromiseRequestHeader, PromiseResponseHeader, PromiseResult, ResolutionOp, ResolutionResponse,
    ResolveRef,
};

struct Counting;

thread_local! {
    /// Allocations (fresh or grown) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each block below meets `System`'s requirements exactly when its caller
// meets `GlobalAlloc`'s; the count is a thread-local `Cell` with a const
// initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What the codec wrote for each shape before it wrote in one pass: the
/// bytes on the wire must not change.
const GOLDEN: [(&str, &str); 13] = [
    (
        "grant",
        "<envelope trace='90017' span='3'><header><promise-request request-id='r17' client='c3' duration='60000'><predicate>qty(&apos;widgets&apos;) &gt;= 4</predicate></promise-request></header><body/></envelope>",
    ),
    (
        "grant reply",
        "<envelope><header><promise-response expires='1060250' correlation='r17' promise='4102' result='accepted'/></header><body/></envelope>",
    ),
    (
        "refused grant reply",
        "<envelope><header><promise-response expires='0' correlation='r17' result='rejected' reason='insufficient quantity in &apos;widgets&apos;: 2 &lt; 4'/></header><body/></envelope>",
    ),
    (
        "negotiated grant reply",
        "<envelope><header><promise-response expires='1060250' correlation='r18' promise='4103' result='accepted-with-condition' condition='dropped 1 desirable clause(s)'><granted-predicate>prop(&apos;rooms&apos;, 1): floor == 5</granted-predicate></promise-response></header><body/></envelope>",
    ),
    (
        "prepare",
        "<envelope trace='90017' span='4'><header><promise-request request-id='r17@s2' client='c3' duration='60000' prepare='true'><predicate>qty(&apos;seats&apos;) &gt;= 2</predicate><predicate>prop(&apos;rooms&apos;, 1): floor == 5 &amp;&amp; view == true</predicate></promise-request></header><body/></envelope>",
    ),
    (
        "prepare reply",
        "<envelope><header><promise-response expires='1060250' correlation='r17@s2' promise='4104' result='accepted'/></header><body/></envelope>",
    ),
    (
        "commit",
        "<envelope trace='90017' span='5'><header><resolve promise='4104' op='commit'/></header><body/></envelope>",
    ),
    (
        "abort by request",
        "<envelope><header><resolve client='c3' request='r17@s2' op='abort'/></header><body/></envelope>",
    ),
    (
        "resolve reply",
        "<envelope><header><resolution promise='4104' op='commit' applied='true'/><resolution client='c3' request='r17@s2' op='abort' applied='false' error='promise 4104 expired while in doubt'/></header><body/></envelope>",
    ),
    (
        "release",
        "<envelope trace='90018' span='1'><header><release promise='4102'/></header><body/></envelope>",
    ),
    (
        "release reply",
        "<envelope><header/><body/></envelope>",
    ),
    (
        "action under a promise",
        "<envelope><header><environment><under release='true' promise='4102'/><under release='false' correlation='r19'/></environment></header><body><action service='merchant' operation='purchase'><param name='pool'>widgets</param><param name='qty'>4</param></action></body></envelope>",
    ),
    (
        "action reply",
        "<envelope><header/><body><action-response ok='true'><field name='order'>o-7</field></action-response></body></envelope>",
    ),
];

/// Every envelope shape the cluster sends, by the hop that sends it.
fn shapes() -> Vec<(&'static str, Envelope)> {
    let request = |id: &str, predicates: &[&str], prepare: bool| PromiseRequestHeader {
        request_id: id.into(),
        client: "c3".into(),
        predicates: predicates.iter().map(|p| (*p).into()).collect(),
        duration_ms: 60_000,
        exchange: vec![],
        negotiate: false,
        prepare,
    };
    let accepted = |id: u64, correlation: &str| PromiseResponseHeader {
        promise_id: Some(id),
        result: PromiseResult::Accepted,
        expires_at: 1_060_250,
        correlation: correlation.into(),
        granted_predicates: vec![],
    };
    let reply = |responses: Vec<PromiseResponseHeader>| Envelope {
        promise_responses: responses,
        ..Envelope::new()
    };
    let by_request = ResolveRef::Request {
        client: "c3".into(),
        request: "r17@s2".into(),
    };
    vec![
        (
            "grant",
            Envelope::new()
                .with_promise_request(request("r17", &["qty('widgets') >= 4"], false))
                .with_trace(90_017, 3),
        ),
        ("grant reply", reply(vec![accepted(4_102, "r17")])),
        (
            "refused grant reply",
            reply(vec![PromiseResponseHeader {
                promise_id: None,
                result: PromiseResult::Rejected("insufficient quantity in 'widgets': 2 < 4".into()),
                expires_at: 0,
                correlation: "r17".into(),
                granted_predicates: vec![],
            }]),
        ),
        (
            "negotiated grant reply",
            reply(vec![PromiseResponseHeader {
                promise_id: Some(4_103),
                result: PromiseResult::AcceptedWithCondition(
                    "dropped 1 desirable clause(s)".into(),
                ),
                expires_at: 1_060_250,
                correlation: "r18".into(),
                granted_predicates: vec!["prop('rooms', 1): floor == 5".into()],
            }]),
        ),
        (
            "prepare",
            Envelope::new()
                .with_promise_request(request(
                    "r17@s2",
                    &[
                        "qty('seats') >= 2",
                        "prop('rooms', 1): floor == 5 && view == true",
                    ],
                    true,
                ))
                .with_trace(90_017, 4),
        ),
        ("prepare reply", reply(vec![accepted(4_104, "r17@s2")])),
        (
            "commit",
            Envelope::new()
                .with_resolution(ResolveRef::Id(4_104), ResolutionOp::Commit)
                .with_trace(90_017, 5),
        ),
        (
            "abort by request",
            Envelope::new().with_resolution(by_request.clone(), ResolutionOp::Abort),
        ),
        (
            "resolve reply",
            Envelope {
                resolution_responses: vec![
                    ResolutionResponse {
                        reference: ResolveRef::Id(4_104),
                        op: ResolutionOp::Commit,
                        applied: true,
                        error: None,
                    },
                    ResolutionResponse {
                        reference: by_request,
                        op: ResolutionOp::Abort,
                        applied: false,
                        error: Some("promise 4104 expired while in doubt".into()),
                    },
                ],
                ..Envelope::new()
            },
        ),
        (
            "release",
            Envelope::new().with_release(4_102).with_trace(90_018, 1),
        ),
        ("release reply", Envelope::new()),
        (
            "action under a promise",
            Envelope::new()
                .with_environment(EnvironmentHeader {
                    entries: vec![
                        EnvEntry {
                            reference: EnvRef::Id(4_102),
                            release_after: true,
                        },
                        EnvEntry {
                            reference: EnvRef::Correlation("r19".into()),
                            release_after: false,
                        },
                    ],
                })
                .with_action(
                    ActionRequest::new("merchant", "purchase")
                        .param("pool", "widgets")
                        .param("qty", 4),
                ),
        ),
        (
            "action reply",
            Envelope {
                action_response: Some(ActionResponse::success().field("order", "o-7")),
                ..Envelope::new()
            },
        ),
    ]
}

#[test]
fn every_shape_keeps_its_bytes() {
    let shapes = shapes();
    assert_eq!(shapes.len(), GOLDEN.len());
    for ((name, env), (golden_name, golden)) in shapes.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(encode(env), golden, "{name}");
        assert_eq!(decode(golden).as_ref(), Ok(env), "{name}");
    }
}

#[test]
fn encode_allocates_once_per_envelope() {
    for (name, env) in shapes() {
        let (xml, made) = counted(|| encode(&env));
        assert_eq!(made, 1, "{name}: {made} allocations for {xml:?}");
        assert_eq!(xml.len(), xml.capacity(), "{name}");
    }
}

/// A one-predicate grant owns five heap blocks: the request list, the
/// request id, the client, the predicate list and the predicate.
#[test]
fn decoding_a_grant_allocates_only_its_fields() {
    let (_, grant) = GOLDEN[0];
    let (env, made) = counted(|| decode(grant).expect("decodes"));
    assert_eq!(env.promise_requests[0].predicates.len(), 1);
    assert!(made <= 5, "{made} allocations to decode {grant:?}");
}
