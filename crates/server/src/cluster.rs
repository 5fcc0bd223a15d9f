//! Cluster mode: peer endpoints, role-aware request routing, and the
//! replication/election driver.
//!
//! A cluster node runs three cooperating pieces on top of the ordinary
//! server:
//!
//! * **Peer endpoints** (`/api/v1/cluster/{replicate,vote,status}`) —
//!   the leader ships frame-checksummed WAL segments to `replicate`;
//!   candidates solicit `vote`s; `status` is how peers (and operators)
//!   read a node's role, term, and replication offset.
//! * **The role guard** — a follower/candidate refuses client writes with
//!   a typed `not_leader` envelope carrying the leader hint, and serves
//!   GETs only while its last leader contact is within the staleness
//!   bound.
//! * **The driver thread** — while leading, ships segments every lease/5
//!   and renews the lease on majority acknowledgement (stepping down when
//!   a majority stays unreachable for a full lease); while following,
//!   stands for election after the lease plus a deterministic per-node
//!   jitter expires without leader contact.
//!
//! Election and replication edge cases (lost heartbeats, a partitioned
//! leader, torn shipped segments, double-grant races) are driven through
//! the deterministic failpoint registry — sites `cluster.replicate.send`,
//! `cluster.vote.send`, and `cluster.install.torn` — so the cluster chaos
//! suite replays them from a seed instead of waiting for the network to
//! misbehave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_api::{v1, ErrorEnvelope, WireDecode, WireEncode};
use chronos_core::cluster::{election_jitter, segment_checksum, ClusterRole, ClusterState};
use chronos_core::ChronosControl;
use chronos_http::{Client, Method, Request, Response, Router, ServerMetrics, Status};
use parking_lot::Mutex;

/// Largest segment shipped per replicate call; a lagging follower catches
/// up over several ticks instead of one giant body.
const MAX_SEGMENT_BYTES: usize = 256 * 1024;

/// Named envelope code refusing a segment whose term regressed.
pub const CODE_STALE_TERM: &str = "stale_term";

/// Named envelope code refusing a segment that does not start at the
/// follower's current replication offset.
pub const CODE_OFFSET_GAP: &str = "offset_gap";

/// Named envelope code refusing a segment whose checksum does not match.
pub const CODE_BAD_SEGMENT: &str = "bad_segment";

/// One replication peer, from this node's point of view.
struct Peer {
    client: Client,
    /// The feed offset we believe the peer has applied through. Only
    /// trusted after a sync (ack or status read); until then the driver
    /// asks the peer instead of guessing.
    offset: u64,
    synced: bool,
}

/// The shared half of the driver: peers and a stop flag. The driver
/// thread ticks it; `ChronosServer` configures peers and stops it.
pub(crate) struct ClusterRuntime {
    state: Arc<ClusterState>,
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
    peers: Mutex<Vec<Peer>>,
    stop: AtomicBool,
}

impl ClusterRuntime {
    pub(crate) fn new(
        state: Arc<ClusterState>,
        control: Arc<ChronosControl>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        ClusterRuntime {
            state,
            control,
            metrics,
            peers: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        }
    }

    /// Replaces the peer set (base URLs of the other cluster nodes).
    /// Elections only begin once peers are known.
    pub(crate) fn set_peers(&self, urls: Vec<String>) {
        let lease = self.state.lease();
        let timeout = (lease / 2).max(Duration::from_millis(50));
        let mut peers = self.peers.lock();
        *peers = urls
            .into_iter()
            .map(|url| {
                let client = Client::new(url.trim_end_matches('/')).with_timeout(timeout);
                Peer { client, offset: 0, synced: false }
            })
            .collect();
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The driver loop; runs until [`ClusterRuntime::request_stop`].
    pub(crate) fn run(&self) {
        let tick = (self.state.lease() / 5).max(Duration::from_millis(10));
        while !self.stop.load(Ordering::SeqCst) {
            match self.state.role() {
                ClusterRole::Leader => self.ship_round(),
                ClusterRole::Follower | ClusterRole::Candidate => self.maybe_elect(),
            }
            self.publish_metrics();
            std::thread::sleep(tick);
        }
    }

    /// One leader round: ship a segment (or empty heartbeat) to every
    /// peer; a majority of acknowledgements renews the lease. A leader
    /// that cannot reach a majority for a full lease steps down — it can
    /// no longer prove it was not deposed, so it must stop taking writes.
    fn ship_round(&self) {
        let term = self.state.term();
        let leader = self.state.advertise();
        let mut peers = self.peers.lock();
        let cluster_size = peers.len() + 1;
        let mut reachable = 1usize; // self
        for peer in peers.iter_mut() {
            if chronos_util::fail_eval!("cluster.replicate.send").is_some() {
                continue; // injected lost heartbeat / partition
            }
            if !peer.synced && !self.sync_peer(peer, term) {
                continue;
            }
            let Some(frames) = self.control.read_replication(peer.offset, MAX_SEGMENT_BYTES) else {
                // The peer claims an offset outside our feed (diverged
                // replica, or our own feed was truncated): re-ask, and
                // leave it unacknowledged — its lag shows on /readyz.
                peer.synced = false;
                continue;
            };
            let shipped_frames = !frames.is_empty();
            let request = v1::ReplicateRequest {
                term,
                leader: leader.clone(),
                start_offset: peer.offset,
                checksum: segment_checksum(&frames),
                frames,
            };
            match peer.client.post_json("/api/v1/cluster/replicate", &request.to_value()) {
                Ok(response) if response.status.is_success() => {
                    let Some(ack) =
                        response.json_body().ok().and_then(|v| v1::ReplicateAck::decode(&v).ok())
                    else {
                        continue;
                    };
                    if ack.term > term {
                        // Fenced: a newer leader exists.
                        self.state.observe_term(ack.term);
                        return;
                    }
                    // A torn install acknowledges mid-segment; resume there.
                    peer.offset = ack.offset;
                    peer.synced = true;
                    reachable += 1;
                    if shipped_frames {
                        self.metrics.segments_shipped.inc();
                    }
                }
                Ok(_) => {
                    // Typed refusal (stale term / offset gap): the status
                    // body tells us whether we were deposed or just out of
                    // sync with this peer's offset.
                    peer.synced = false;
                    if self.sync_peer(peer, term) {
                        reachable += 1;
                    }
                    if self.state.role() != ClusterRole::Leader {
                        return; // deposed mid-round
                    }
                }
                Err(_) => {} // unreachable peer
            }
        }
        if reachable * 2 > cluster_size {
            self.state.renew_lease();
        } else if self.state.lease_expired(Instant::now()) {
            self.state.step_down();
        }
    }

    /// Reads a peer's status to learn its replication offset (and any
    /// higher term). Returns whether the peer answered.
    fn sync_peer(&self, peer: &mut Peer, own_term: u64) -> bool {
        let Ok(response) = peer.client.get("/api/v1/cluster/status") else { return false };
        let Some(status) =
            response.json_body().ok().and_then(|v| v1::ClusterStatusDto::decode(&v).ok())
        else {
            return false;
        };
        if status.term > own_term {
            self.state.observe_term(status.term);
            return true;
        }
        if status.offset <= self.control.replication_offset() {
            peer.offset = status.offset;
            peer.synced = true;
        }
        // else: the peer is ahead of us — a diverged minority replica.
        // We cannot rewind its store; it stays unsynced (and unready)
        // until re-seeded. See DESIGN.md §5f failure table.
        true
    }

    /// One follower/candidate round: stand for election once the lease
    /// plus this node's deterministic jitter has passed without contact.
    fn maybe_elect(&self) {
        let now = Instant::now();
        let lease = self.state.lease();
        let jitter = election_jitter(self.state.node_id(), self.state.term() + 1, lease);
        if !self.state.election_due(now, jitter) {
            return;
        }
        let peer_count = self.peers.lock().len();
        if peer_count == 0 {
            return; // peers not configured yet: nothing to win
        }
        let term = self.state.start_election();
        self.metrics.elections.inc();
        let request = v1::VoteRequest {
            term,
            candidate: self.state.advertise(),
            last_offset: self.control.replication_offset(),
        };
        let mut votes = 1usize; // own vote, cast in start_election
        let peers = self.peers.lock();
        let cluster_size = peers.len() + 1;
        for peer in peers.iter() {
            if chronos_util::fail_eval!("cluster.vote.send").is_some() {
                continue; // injected lost vote request
            }
            let Ok(response) = peer.client.post_json("/api/v1/cluster/vote", &request.to_value())
            else {
                continue;
            };
            let Some(vote) =
                response.json_body().ok().and_then(|v| v1::VoteResponse::decode(&v).ok())
            else {
                continue;
            };
            if vote.term > term {
                self.state.observe_term(vote.term);
                return; // outpaced: a newer term is already in play
            }
            if vote.granted {
                votes += 1;
            }
        }
        drop(peers);
        if votes * 2 > cluster_size && self.state.win_election(term) {
            // Failover: the store already holds every replicated write
            // (the "WAL replay" happened continuously, segment by
            // segment). Re-arm the job protocol now: an immediate sweep
            // reschedules any job whose agent died with the old leader,
            // and agents that survived re-aim here via the not_leader
            // hint and keep their leases alive. Exactly-once holds
            // because claims, results, and fencing all replicated.
            let mut peers = self.peers.lock();
            for peer in peers.iter_mut() {
                peer.synced = false; // re-learn offsets as leader
            }
            drop(peers);
            let _ = self.control.check_timeouts();
        }
    }

    /// Mirrors cluster state into the shared [`ServerMetrics`] gauges.
    fn publish_metrics(&self) {
        let role = match self.state.role() {
            ClusterRole::Follower => 0,
            ClusterRole::Candidate => 1,
            ClusterRole::Leader => 2,
        };
        self.metrics.cluster_role.set(role);
        self.metrics.cluster_term.set(self.state.term());
        self.metrics.replication_lag_ms.set(self.state.lag(Instant::now()).as_millis() as u64);
    }
}

/// Mounts the peer endpoints. Unlike the client API these carry no
/// session tokens: they are node-to-node traffic on the cluster's own
/// network (the deployment guide's trust boundary).
pub(crate) fn mount(
    router: &mut Router,
    state: Arc<ClusterState>,
    control: Arc<ChronosControl>,
    metrics: Arc<ServerMetrics>,
) {
    let state_ = Arc::clone(&state);
    let control_ = Arc::clone(&control);
    router.post("/api/v1/cluster/replicate", move |req, _p| replicate(&state_, &control_, req));

    let state_ = Arc::clone(&state);
    let control_ = Arc::clone(&control);
    router.post("/api/v1/cluster/vote", move |req, _p| {
        let request: v1::VoteRequest = match chronos_api::extract::body(req) {
            Ok(request) => request,
            Err(e) => return bad_request(&e.to_string()),
        };
        let own_offset = control_.replication_offset();
        let (granted, term) =
            state_.grant_vote(request.term, &request.candidate, request.last_offset, own_offset);
        Response::json(&v1::VoteResponse { term, granted }.to_value())
    });

    router.get("/api/v1/cluster/status", move |_req, _p| {
        Response::json(&status_dto(&state, &control, &metrics).to_value())
    });
}

/// Handles one shipped segment: fence the term, verify the checksum,
/// check offset continuity, then install. Every refusal leaves the store
/// byte-identical — install only runs after all three gates pass.
fn replicate(state: &ClusterState, control: &ChronosControl, req: &Request) -> Response {
    let request: v1::ReplicateRequest = match chronos_api::extract::body(req) {
        Ok(request) => request,
        Err(e) => return bad_request(&e.to_string()),
    };
    // Gate 1 — term fencing: a deposed leader's late segment is refused
    // before anything else looks at it.
    if let Err(current) = state.observe_leader(request.term, &request.leader) {
        let envelope = ErrorEnvelope::named(
            CODE_STALE_TERM,
            format!("segment term {} fenced by current term {current}", request.term),
        );
        return Response::json_status(Status::CONFLICT, &envelope.to_value());
    }
    // Gate 2 — integrity: the checksum covers the exact bytes to install.
    if segment_checksum(&request.frames) != request.checksum {
        let envelope =
            ErrorEnvelope::named(CODE_BAD_SEGMENT, "segment checksum mismatch (refused)");
        return Response::json_status(Status::BAD_REQUEST, &envelope.to_value());
    }
    // Gate 3 — continuity: the segment must extend this replica's feed
    // exactly; a gap or an overlap (stale leader replaying old log) is
    // refused and the leader re-syncs from our status.
    let offset = control.replication_offset();
    if request.start_offset != offset {
        let envelope = ErrorEnvelope::named(
            CODE_OFFSET_GAP,
            format!("segment starts at {} but this replica is at {offset}", request.start_offset),
        );
        return Response::json_status(Status::CONFLICT, &envelope.to_value());
    }
    // Deterministic torn-install fault: the local write tears mid-frame
    // after the wire checks passed — the install path's torn-tail
    // truncation applies the complete prefix and acks mid-segment. Only
    // data segments hit the site: an empty heartbeat has nothing to tear,
    // and a one-shot `torn` policy must not be spent on one.
    let mut payload = request.frames;
    if !payload.is_empty() {
        match chronos_util::fail_eval!("cluster.install.torn") {
            Some(chronos_util::fail::Injected::Torn { keep }) => {
                payload.truncate(keep.min(payload.len()));
            }
            Some(chronos_util::fail::Injected::Error(msg)) => {
                let envelope = ErrorEnvelope::status(500, format!("install failed: {msg}"));
                return Response::json_status(Status::INTERNAL_ERROR, &envelope.to_value());
            }
            None => {}
        }
    }
    match control.install_replication(&payload) {
        Ok(_) => {
            let ack = v1::ReplicateAck { term: state.term(), offset: control.replication_offset() };
            Response::json(&ack.to_value())
        }
        Err(e) => crate::error_response(e),
    }
}

/// This node's cluster status body.
pub(crate) fn status_dto(
    state: &ClusterState,
    control: &ChronosControl,
    metrics: &ServerMetrics,
) -> v1::ClusterStatusDto {
    v1::ClusterStatusDto {
        node: state.node_id().to_string(),
        role: state.role().as_str().to_string(),
        term: state.term(),
        leader: state.leader_hint(),
        offset: control.replication_offset(),
        lag_millis: state.lag(Instant::now()).as_millis() as u64,
        elections: state.elections_started(),
        segments_shipped: metrics.segments_shipped.get(),
    }
}

/// Role-aware routing, applied before the router dispatches: `None`
/// passes the request through; `Some` is the typed refusal.
///
/// * Peer traffic, liveness/readiness probes, version negotiation, and
///   login/logout (sessions are node-local) always pass.
/// * The leader serves everything.
/// * Followers serve GETs while fresh (last leader contact within the
///   staleness bound) — the hot agent-poll and experiment-status reads
///   scale across replicas — and refuse everything else with `not_leader`
///   plus the leader hint.
pub(crate) fn guard(request: &Request, state: &ClusterState) -> Option<Response> {
    let path = request.path.as_str();
    if !(path.starts_with("/api") || path.starts_with("/ui")) {
        return None; // /healthz, /readyz report role themselves
    }
    if path.starts_with("/api/v1/cluster/")
        || path == "/api"
        || path.ends_with("/version")
        || path == "/api/v1/login"
        || path == "/api/v1/logout"
    {
        return None;
    }
    if state.role() == ClusterRole::Leader {
        return None;
    }
    let hint = state.leader_hint();
    if request.method == Method::Get {
        if !state.is_stale(Instant::now()) {
            return None;
        }
        return Some(not_leader_response(
            "replica lag exceeds the staleness bound; read from the leader",
            hint,
            state.lease(),
        ));
    }
    Some(not_leader_response("this node is not the leader", hint, state.lease()))
}

/// The typed `503 not_leader` refusal. The Retry-After hint covers the
/// no-hint (mid-election) case: by a quarter-lease later either a leader
/// exists or the client's next attempt gets its address.
fn not_leader_response(message: &str, leader: Option<String>, lease: Duration) -> Response {
    Response::json_status(
        Status::SERVICE_UNAVAILABLE,
        &ErrorEnvelope::not_leader(message, leader).to_value(),
    )
    .with_retry_after((lease / 4).max(Duration::from_millis(25)))
}

fn bad_request(message: &str) -> Response {
    Response::json_status(Status::BAD_REQUEST, &ErrorEnvelope::status(400, message).to_value())
}
