//! Cluster-mode state for the replicated control plane: roles, term
//! numbers, and the leader lease.
//!
//! One node is the **leader**: it accepts client writes, appends them to
//! its store's WAL, and ships the replication feed (see
//! [`MetadataStore::read_replication`](crate::MetadataStore::read_replication))
//! to every **follower**. Followers install shipped segments into their own
//! stores and serve read traffic under a bounded-staleness guard. When a
//! follower stops hearing from the leader for a full lease it becomes a
//! **candidate** and asks its peers for votes; a majority makes it the new
//! leader.
//!
//! **Terms are fencing tokens**, generalizing the attempt-number fencing of
//! the job lease protocol: every replicated segment and every vote carries
//! the sender's term, and any message whose term regresses is refused. A
//! deposed leader that keeps shipping its old log is fenced by the higher
//! term its ex-followers adopted, exactly as a zombie agent's stale attempt
//! number fences its late result upload.
//!
//! This type is the *state machine only* — pure transitions over role,
//! term, vote, and lease timestamps. The network driver that ships
//! segments, requests votes, and ticks the lease clock lives in
//! `chronos-server`; keeping the transitions here makes them unit-testable
//! without sockets and reusable by the simulation in the cluster suite.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// A node's current role in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRole {
    /// Accepts writes, ships the replication feed, renews its lease on
    /// majority acknowledgement.
    Leader,
    /// Installs shipped segments; serves reads within the staleness bound.
    Follower,
    /// A follower whose leader lease expired, currently soliciting votes.
    Candidate,
}

impl ClusterRole {
    /// Stable lowercase name (wire bodies, metrics, the status UI).
    pub fn as_str(self) -> &'static str {
        match self {
            ClusterRole::Leader => "leader",
            ClusterRole::Follower => "follower",
            ClusterRole::Candidate => "candidate",
        }
    }
}

/// Static cluster-mode configuration for one node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's stable identifier (used for vote bookkeeping and
    /// deterministic election jitter).
    pub node_id: String,
    /// The leader lease: a leader that cannot reach a majority for this
    /// long stops accepting writes; a follower that hears nothing for this
    /// long starts an election.
    pub lease: Duration,
    /// How far a follower's last leader contact may lag before its reads
    /// are refused (and `/readyz` reports 503).
    pub staleness_bound: Duration,
}

impl ClusterConfig {
    /// Defaults: a one-second lease and a staleness bound of twice the
    /// lease.
    pub fn new(node_id: impl Into<String>) -> Self {
        let lease = Duration::from_secs(1);
        ClusterConfig { node_id: node_id.into(), lease, staleness_bound: lease * 2 }
    }

    /// Overrides the lease; the staleness bound follows at twice the lease.
    pub fn with_lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self.staleness_bound = lease * 2;
        self
    }
}

struct Inner {
    role: ClusterRole,
    term: u64,
    /// Advertised base URL of the node believed to be leader (self, when
    /// leading) — the hint carried by `not_leader` refusals.
    leader: Option<String>,
    /// Highest term this node has granted a vote in, with the candidate it
    /// went to: one grant per term, so two candidates racing the same term
    /// cannot both claim this node's vote.
    voted_term: u64,
    voted_for: Option<String>,
    /// Followers: last heartbeat/segment from the leader. Leaders: last
    /// majority acknowledgement (the lease renewal). Candidates: when the
    /// election started. Drives the **election timer** only.
    last_contact: Instant,
    /// Last contact that proves this node's view of committed data is
    /// current: a shipped segment/heartbeat, or leading with a live lease.
    /// Drives the **read-staleness guard** — unlike `last_contact` it is
    /// *not* reset by standing for election, so a minority-partitioned
    /// node that keeps electing itself still goes stale and refuses reads.
    last_leader_contact: Instant,
    elections_started: u64,
}

/// The live cluster state of one node. All transitions take `&self`;
/// the driver, the request router, `/readyz`, and the UI share one handle.
pub struct ClusterState {
    config: ClusterConfig,
    /// This node's externally reachable base URL (known only after the
    /// listener binds, hence not part of the static config).
    advertise: Mutex<String>,
    inner: Mutex<Inner>,
}

impl ClusterState {
    /// A fresh node: follower at term 0, lease clock started now.
    pub fn new(config: ClusterConfig) -> Self {
        ClusterState {
            config,
            advertise: Mutex::new(String::new()),
            inner: Mutex::new(Inner {
                role: ClusterRole::Follower,
                term: 0,
                leader: None,
                voted_term: 0,
                voted_for: None,
                last_contact: Instant::now(),
                last_leader_contact: Instant::now(),
                elections_started: 0,
            }),
        }
    }

    /// This node's configured identifier.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The configured leader lease.
    pub fn lease(&self) -> Duration {
        self.config.lease
    }

    /// The configured follower-read staleness bound.
    pub fn staleness_bound(&self) -> Duration {
        self.config.staleness_bound
    }

    /// Records this node's reachable base URL once the listener is bound.
    pub fn set_advertise(&self, url: &str) {
        *self.advertise.lock() = url.trim_end_matches('/').to_string();
    }

    /// This node's reachable base URL (empty until bound).
    pub fn advertise(&self) -> String {
        self.advertise.lock().clone()
    }

    /// Current role.
    pub fn role(&self) -> ClusterRole {
        self.inner.lock().role
    }

    /// Current term (the fencing token stamped on every cluster message).
    pub fn term(&self) -> u64 {
        self.inner.lock().term
    }

    /// True when this node is the leader.
    pub fn is_leader(&self) -> bool {
        self.inner.lock().role == ClusterRole::Leader
    }

    /// The advertised URL of the node currently believed to lead (self
    /// when leading) — the `not_leader` redirect hint.
    pub fn leader_hint(&self) -> Option<String> {
        self.inner.lock().leader.clone()
    }

    /// Elections this node has started (the `elections` counter).
    pub fn elections_started(&self) -> u64 {
        self.inner.lock().elections_started
    }

    /// Replication lag as seen by readiness: time since the last leader
    /// contact for followers/candidates, zero for the leader itself.
    pub fn lag(&self, now: Instant) -> Duration {
        let inner = self.inner.lock();
        match inner.role {
            ClusterRole::Leader => Duration::ZERO,
            _ => now.saturating_duration_since(inner.last_leader_contact),
        }
    }

    /// True when this non-leader's reads must be refused: the last leader
    /// contact is older than the staleness bound, so serving a read could
    /// hide arbitrarily many committed writes.
    pub fn is_stale(&self, now: Instant) -> bool {
        let inner = self.inner.lock();
        inner.role != ClusterRole::Leader
            && now.saturating_duration_since(inner.last_leader_contact)
                > self.config.staleness_bound
    }

    /// True when a full lease has passed since the last contact — a
    /// follower should stand for election, a leader should stop accepting
    /// writes (it can no longer prove it was not deposed).
    pub fn lease_expired(&self, now: Instant) -> bool {
        let inner = self.inner.lock();
        now.saturating_duration_since(inner.last_contact) >= self.config.lease
    }

    /// A replicated segment (or heartbeat) arrived claiming leadership at
    /// `term`. Refused with this node's current term when `term` regresses
    /// — the fencing that stops a deposed leader's late segments. On
    /// success the node (re)settles as follower under `leader` and its
    /// lease clock resets.
    pub fn observe_leader(&self, term: u64, leader: &str) -> Result<(), u64> {
        let mut inner = self.inner.lock();
        if term < inner.term {
            return Err(inner.term);
        }
        inner.term = term;
        inner.role = ClusterRole::Follower;
        inner.leader = Some(leader.to_string());
        inner.last_contact = Instant::now();
        inner.last_leader_contact = inner.last_contact;
        Ok(())
    }

    /// A peer reported a higher term (vote response, replicate ack): adopt
    /// it and step down to follower. No-op when `term` does not exceed the
    /// current one.
    pub fn observe_term(&self, term: u64) {
        let mut inner = self.inner.lock();
        if term > inner.term {
            inner.term = term;
            inner.role = ClusterRole::Follower;
            inner.leader = None;
        }
    }

    /// Decides a vote request: `(granted, current_term)`.
    ///
    /// Granted only when all of these hold, closing the double-grant race:
    /// * `term` is ahead of (or re-asking in) the term this node last
    ///   voted in — one candidate per term gets this node's vote;
    /// * the candidate's replication offset is at least this node's — a
    ///   behind replica must not lead (committed writes would vanish);
    /// * this node's own leader lease has expired — a connected follower
    ///   refuses to depose a live leader.
    pub fn grant_vote(
        &self,
        term: u64,
        candidate: &str,
        candidate_offset: u64,
        own_offset: u64,
    ) -> (bool, u64) {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        if term < inner.term || candidate_offset < own_offset {
            return (false, inner.term);
        }
        let lease_live = now.saturating_duration_since(inner.last_contact) < self.config.lease;
        if inner.leader.is_some() && lease_live {
            return (false, inner.term);
        }
        let already_voted = inner.voted_term >= term
            && !(inner.voted_term == term && inner.voted_for.as_deref() == Some(candidate));
        if already_voted {
            return (false, inner.term);
        }
        inner.term = term;
        inner.voted_term = term;
        inner.voted_for = Some(candidate.to_string());
        inner.role = ClusterRole::Follower;
        inner.leader = None;
        // Granting resets the election timer: the voter defers to the
        // candidate instead of immediately standing itself.
        inner.last_contact = now;
        (true, inner.term)
    }

    /// True when the election timer has fired: a full lease plus this
    /// node's `jitter` has passed since the last contact (leader contact,
    /// vote grant, or own previous election). Separate from [`Self::lag`]
    /// so repeated failed elections pace themselves without ever masking
    /// read staleness.
    pub fn election_due(&self, now: Instant, jitter: Duration) -> bool {
        let inner = self.inner.lock();
        now.saturating_duration_since(inner.last_contact) >= self.config.lease + jitter
    }

    /// Starts an election: bumps the term, votes for self, becomes a
    /// candidate. Returns the new term to stamp on vote requests.
    pub fn start_election(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.term += 1;
        inner.role = ClusterRole::Candidate;
        inner.leader = None;
        inner.voted_term = inner.term;
        inner.voted_for = Some(self.config.node_id.clone());
        inner.last_contact = Instant::now();
        inner.elections_started += 1;
        inner.term
    }

    /// A majority granted the election started at `term`. Returns `false`
    /// (no-op) when the moment has passed — a higher term arrived while
    /// votes were in flight.
    pub fn win_election(&self, term: u64) -> bool {
        let mut inner = self.inner.lock();
        if inner.role != ClusterRole::Candidate || inner.term != term {
            return false;
        }
        inner.role = ClusterRole::Leader;
        inner.leader = Some(self.advertise.lock().clone());
        inner.last_contact = Instant::now();
        inner.last_leader_contact = inner.last_contact;
        true
    }

    /// The leader reached a majority this round: its lease renews.
    pub fn renew_lease(&self) {
        let mut inner = self.inner.lock();
        if inner.role == ClusterRole::Leader {
            inner.last_contact = Instant::now();
            inner.last_leader_contact = inner.last_contact;
        }
    }

    /// Steps down to follower (lease expired without a majority, or a
    /// fencing refusal proved a newer leader exists). Keeps the term.
    pub fn step_down(&self) {
        let mut inner = self.inner.lock();
        inner.role = ClusterRole::Follower;
        inner.leader = None;
    }
}

/// Checksum stamped on every shipped replication segment (FNV-1a 64).
/// Verified before install, so a frame corrupted in flight refuses the
/// whole segment rather than poisoning the follower's store.
pub fn segment_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Deterministic per-node election jitter in `[0, lease)`: nodes whose
/// leases expire together must not all stand at once, and a reproducible
/// schedule (node id + term, no wall clock) keeps seeded cluster chaos
/// runs replayable.
pub fn election_jitter(node_id: &str, term: u64, lease: Duration) -> Duration {
    let mut hash = segment_checksum(node_id.as_bytes()) ^ term.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // One xorshift round spreads consecutive terms across the range.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    lease.mul_f64((hash % 1024) as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(lease_ms: u64) -> ClusterState {
        ClusterState::new(ClusterConfig::new("n1").with_lease(Duration::from_millis(lease_ms)))
    }

    #[test]
    fn term_regress_is_fenced() {
        let s = state(10_000);
        s.observe_leader(5, "http://a").unwrap();
        assert_eq!(s.term(), 5);
        assert_eq!(s.observe_leader(4, "http://b"), Err(5), "stale leader must be refused");
        assert_eq!(s.leader_hint().as_deref(), Some("http://a"));
        s.observe_leader(5, "http://a").unwrap(); // same term renews
        s.observe_leader(7, "http://b").unwrap(); // newer term re-points
        assert_eq!(s.leader_hint().as_deref(), Some("http://b"));
    }

    #[test]
    fn one_vote_per_term_closes_double_grant_race() {
        let s = state(0); // lease 0: always expired, votes are free
        assert_eq!(s.grant_vote(3, "a", 10, 10), (true, 3));
        // Re-ask by the same candidate is idempotent …
        assert_eq!(s.grant_vote(3, "a", 10, 10), (true, 3));
        // … but a rival racing the same term is refused.
        assert_eq!(s.grant_vote(3, "b", 10, 10), (false, 3));
        // A later term opens a fresh vote.
        assert_eq!(s.grant_vote(4, "b", 10, 10), (true, 4));
    }

    #[test]
    fn behind_candidates_and_live_leaders_block_votes() {
        let s = state(60_000);
        // Candidate behind this node's replication offset: refused.
        assert_eq!(s.grant_vote(2, "a", 5, 10), (false, 0));
        // A live leader lease also blocks the vote.
        s.observe_leader(2, "http://leader").unwrap();
        assert_eq!(s.grant_vote(3, "a", 10, 10), (false, 2));
    }

    #[test]
    fn votes_flow_once_the_lease_expires() {
        let s = state(1);
        s.observe_leader(2, "http://leader").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(s.lease_expired(Instant::now()));
        assert_eq!(s.grant_vote(3, "a", 10, 10), (true, 3));
    }

    #[test]
    fn election_lifecycle() {
        let s = state(10_000);
        s.set_advertise("http://self/");
        let term = s.start_election();
        assert_eq!(term, 1);
        assert_eq!(s.role(), ClusterRole::Candidate);
        assert_eq!(s.elections_started(), 1);
        assert!(s.win_election(term));
        assert!(s.is_leader());
        assert_eq!(s.leader_hint().as_deref(), Some("http://self"));
        assert_eq!(s.lag(Instant::now()), Duration::ZERO);
        // A stale win (term moved on) is a no-op.
        s.observe_term(term + 1);
        assert_eq!(s.role(), ClusterRole::Follower);
        assert!(!s.win_election(term));
    }

    #[test]
    fn staleness_tracks_leader_contact() {
        let s = state(1);
        s.observe_leader(1, "http://leader").unwrap();
        assert!(!s.is_stale(Instant::now()));
        std::thread::sleep(Duration::from_millis(6));
        assert!(s.is_stale(Instant::now()), "no contact past the bound means stale");
        s.observe_leader(1, "http://leader").unwrap();
        assert!(!s.is_stale(Instant::now()), "a heartbeat clears staleness");
    }

    #[test]
    fn standing_for_election_does_not_mask_staleness() {
        // A minority-partitioned node keeps starting elections it cannot
        // win; each one resets the election timer but must NOT reset the
        // read-staleness clock, or the partitioned node would serve its
        // frozen store forever.
        let s = state(1);
        s.observe_leader(1, "http://leader").unwrap();
        std::thread::sleep(Duration::from_millis(6));
        s.start_election();
        assert!(
            !s.election_due(Instant::now(), Duration::ZERO),
            "standing resets the election timer"
        );
        assert!(s.is_stale(Instant::now()), "standing must not reset the staleness clock");
        assert!(s.lag(Instant::now()) >= Duration::from_millis(6));
    }

    #[test]
    fn checksum_and_jitter_are_deterministic() {
        assert_eq!(segment_checksum(b"chronos"), segment_checksum(b"chronos"));
        assert_ne!(segment_checksum(b"chronos"), segment_checksum(b"chrono\x73x"));
        let lease = Duration::from_millis(500);
        assert_eq!(election_jitter("n1", 3, lease), election_jitter("n1", 3, lease));
        assert!(election_jitter("n1", 3, lease) < lease);
        // Different nodes spread out (holds for these inputs by design).
        assert_ne!(election_jitter("n1", 3, lease), election_jitter("n2", 3, lease));
    }
}
