//! What routing costs in allocations, counted by a global allocator.
//!
//! Every request is routed before its handler runs, so the router must not
//! charge a request for the routes it did not match: a path is decoded
//! once, and the routes compare against that decode. These tests count the
//! allocations of `Router::dispatch` on the calling thread (handlers here
//! allocate nothing) and of `url::decode_segment`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chronos_http::{url, Method, Request, Response, Router, Status};

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter has a const initializer
// and no destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// 60 routes shaped like the served table; the last one is `/api/v1/stats`.
fn table() -> Router {
    let mut router = Router::new();
    for i in 0..59 {
        let pattern = match i % 3 {
            0 => format!("/api/v1/r{i}"),
            1 => format!("/api/v1/r{i}/:id"),
            _ => format!("/api/v1/r{i}/:id/summary.csv"),
        };
        router.get(&pattern, |_, _| Response::status(Status::OK));
    }
    router.get("/api/v1/stats", |_, _| Response::status(Status::OK));
    router
}

fn dispatch_allocations(router: &Router, path: &str) -> usize {
    let request = Request::new(Method::Get, path);
    allocations(|| {
        let response = router.dispatch(&request);
        assert_eq!(response.status, Status::OK, "{path}");
        response
    })
}

#[test]
fn the_last_route_costs_no_more_than_the_first() {
    let router = table();
    let first = dispatch_allocations(&router, "/api/v1/r0");
    let last = dispatch_allocations(&router, "/api/v1/stats");
    assert!(last <= first, "last route: {last} allocations, first route: {first}");
    // Spelled with escapes the path is decoded once too, not once per
    // route tried.
    let encoded = dispatch_allocations(&router, "/%61pi/v1/st%61ts");
    assert!(encoded <= first + 2, "encoded last route: {encoded}, first route: {first}");
}

#[test]
fn a_path_without_escapes_is_decoded_in_place() {
    let router = table();
    // No segment is copied to be decoded: the one allocation left is the
    // list of segments, whatever the slashes.
    let plain = dispatch_allocations(&router, "/api/v1/stats");
    assert!(plain <= 1, "a literal route with no escapes allocated {plain} times");
    assert_eq!(dispatch_allocations(&router, "//api//v1/stats/"), plain);
    // An escaped segment costs its one decode, on a capture route too.
    let with_capture = dispatch_allocations(&router, "/api/v1/r56/plain/summary.csv");
    let with_escape = dispatch_allocations(&router, "/api/v1/r56/pl%61in/summary.csv");
    assert_eq!(with_escape, with_capture + 1, "one escaped segment, one decode");
}

#[test]
fn decode_segment_allocates_only_its_result() {
    assert_eq!(allocations(|| url::decode_segment("a+b")), 1);
    assert_eq!(allocations(|| url::decode_segment("a%20b%2Fc")), 1);
}
