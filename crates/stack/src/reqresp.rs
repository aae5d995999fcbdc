//! The Nectar request-response protocol.
//!
//! §4: "the request-response protocol provides the transport mechanism
//! for client-server RPC calls." The client retransmits a request until
//! the reply arrives; the server deduplicates retransmitted requests by
//! request id and caches its reply so a lost reply can be resent
//! without re-executing the handler (at-most-once execution). A
//! ReplyAck (or the client's next request) releases the cached reply.
//!
//! Table 1's request-response row and the abstract's "latency of a
//! remote procedure call … is less than 500 µsec" measure a round trip
//! through this protocol.

use std::collections::BTreeMap;

use nectar_sim::{SimDuration, SimTime};
use nectar_wire::nectar::{ReqRespHeader, ReqRespKind};

/// Client tunables.
#[derive(Clone, Copy, Debug)]
pub struct RrConfig {
    pub rto: SimDuration,
    pub max_retries: u32,
}

impl Default for RrConfig {
    fn default() -> Self {
        RrConfig { rto: SimDuration::from_millis(5), max_retries: 10 }
    }
}

/// Client-side actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RrClientAction {
    /// Hand this request-response packet to the datalink for `dst_cab`.
    Transmit { dst_cab: u16, packet: Vec<u8> },
    /// The call with `req_id` completed with this response payload.
    Response { req_id: u32, payload: Vec<u8> },
    /// The call exhausted its retries.
    Failed { req_id: u32 },
}

#[derive(Debug)]
struct PendingCall {
    payload: Vec<u8>,
    deadline: SimTime,
    retries: u32,
}

/// Client statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RrClientStats {
    pub calls: u64,
    pub retransmits: u64,
    pub responses: u64,
    pub duplicate_responses: u64,
    pub failures: u64,
}

/// The client half: issues calls to one server mailbox.
#[derive(Debug)]
pub struct RrClient {
    server_cab: u16,
    server_mbox: u16,
    reply_mbox: u16,
    cfg: RrConfig,
    pending: BTreeMap<u32, PendingCall>,
    next_id: u32,
    stats: RrClientStats,
}

impl RrClient {
    pub fn new(server_cab: u16, server_mbox: u16, reply_mbox: u16, cfg: RrConfig) -> Self {
        RrClient {
            server_cab,
            server_mbox,
            reply_mbox,
            cfg,
            pending: BTreeMap::new(),
            next_id: 1,
            stats: RrClientStats::default(),
        }
    }

    pub fn stats(&self) -> &RrClientStats {
        &self.stats
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The server this client is bound to, as `(cab, service mailbox)`.
    /// One reply mailbox can serve only one binding at a time: replies
    /// carry just `(reply_mbox, req_id)`, so calls to distinct servers
    /// through one mailbox could not be told apart on the wire.
    pub fn server(&self) -> (u16, u16) {
        (self.server_cab, self.server_mbox)
    }

    fn request_packet(&self, req_id: u32, payload: &[u8]) -> Vec<u8> {
        ReqRespHeader {
            kind: ReqRespKind::Request,
            dst_mbox: self.server_mbox,
            reply_mbox: self.reply_mbox,
            req_id,
        }
        .build(payload)
    }

    /// Issue a call; returns its request id. Multiple calls may be
    /// outstanding concurrently.
    pub fn call(&mut self, now: SimTime, payload: Vec<u8>, out: &mut Vec<RrClientAction>) -> u32 {
        let req_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let packet = self.request_packet(req_id, &payload);
        self.pending
            .insert(req_id, PendingCall { payload, deadline: now + self.cfg.rto, retries: 0 });
        self.stats.calls += 1;
        out.push(RrClientAction::Transmit { dst_cab: self.server_cab, packet });
        req_id
    }

    /// Process a Reply packet addressed to our reply mailbox.
    pub fn on_reply(
        &mut self,
        _now: SimTime,
        hdr: &ReqRespHeader,
        payload: &[u8],
        out: &mut Vec<RrClientAction>,
    ) {
        debug_assert_eq!(hdr.kind, ReqRespKind::Reply);
        if self.pending.remove(&hdr.req_id).is_none() {
            // duplicate reply: re-ack so the server can release its cache
            self.stats.duplicate_responses += 1;
        } else {
            self.stats.responses += 1;
            out.push(RrClientAction::Response { req_id: hdr.req_id, payload: payload.to_vec() });
        }
        let ack = ReqRespHeader {
            kind: ReqRespKind::ReplyAck,
            dst_mbox: self.server_mbox,
            reply_mbox: self.reply_mbox,
            req_id: hdr.req_id,
        }
        .build(&[]);
        out.push(RrClientAction::Transmit { dst_cab: self.server_cab, packet: ack });
    }

    /// Retransmit overdue requests.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<RrClientAction>) {
        let mut failed = Vec::new();
        let mut resend = Vec::new();
        for (&id, call) in &mut self.pending {
            if now >= call.deadline {
                call.retries += 1;
                if call.retries > self.cfg.max_retries {
                    failed.push(id);
                } else {
                    call.deadline = now + self.cfg.rto;
                    resend.push(id);
                }
            }
        }
        for id in failed {
            self.pending.remove(&id);
            self.stats.failures += 1;
            out.push(RrClientAction::Failed { req_id: id });
        }
        for id in resend {
            let payload = self.pending[&id].payload.clone();
            let packet = self.request_packet(id, &payload);
            self.stats.retransmits += 1;
            out.push(RrClientAction::Transmit { dst_cab: self.server_cab, packet });
        }
    }

    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.pending.values().map(|c| c.deadline).min()
    }
}

/// Server-side actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RrServerAction {
    /// A fresh request: the application should execute the handler and
    /// call [`RrServer::reply`] with the same correlation key.
    Execute { client_cab: u16, reply_mbox: u16, req_id: u32, payload: Vec<u8> },
    /// Transmit a packet (a resent cached reply).
    Transmit { dst_cab: u16, packet: Vec<u8> },
}

/// Server statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RrServerStats {
    pub requests: u64,
    pub duplicate_requests: u64,
    pub replies: u64,
    pub cached_resends: u64,
}

/// Key identifying one client's call slot.
type ClientKey = (u16, u16); // (client CAB, reply mailbox)

#[derive(Debug, Default)]
struct ClientSlot {
    /// Highest request id seen from this client.
    last_req_id: u32,
    /// Cached reply for `last_req_id`, until acked or superseded.
    cached_reply: Option<Vec<u8>>,
    /// True while the handler for `last_req_id` is executing.
    executing: bool,
}

/// The server half: deduplication and reply caching for one service
/// mailbox.
#[derive(Debug, Default)]
pub struct RrServer {
    clients: BTreeMap<ClientKey, ClientSlot>,
    stats: RrServerStats,
}

impl RrServer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> &RrServerStats {
        &self.stats
    }

    /// Process a Request packet from `client_cab`.
    pub fn on_request(
        &mut self,
        client_cab: u16,
        hdr: &ReqRespHeader,
        payload: &[u8],
        out: &mut Vec<RrServerAction>,
    ) {
        debug_assert_eq!(hdr.kind, ReqRespKind::Request);
        let key = (client_cab, hdr.reply_mbox);
        let slot = self.clients.entry(key).or_default();
        if hdr.req_id == slot.last_req_id {
            self.stats.duplicate_requests += 1;
            if let Some(reply) = &slot.cached_reply {
                // reply was lost: resend from cache without re-executing
                let packet = ReqRespHeader {
                    kind: ReqRespKind::Reply,
                    dst_mbox: hdr.reply_mbox,
                    reply_mbox: 0,
                    req_id: hdr.req_id,
                }
                .build(reply);
                self.stats.cached_resends += 1;
                out.push(RrServerAction::Transmit { dst_cab: client_cab, packet });
            }
            // else: still executing — the retransmit is absorbed
            return;
        }
        if hdr.req_id.wrapping_sub(slot.last_req_id) > u32::MAX / 2 {
            // older than what we've already served: stale, drop
            self.stats.duplicate_requests += 1;
            return;
        }
        // a new request supersedes any older cached reply
        slot.last_req_id = hdr.req_id;
        slot.cached_reply = None;
        slot.executing = true;
        self.stats.requests += 1;
        out.push(RrServerAction::Execute {
            client_cab,
            reply_mbox: hdr.reply_mbox,
            req_id: hdr.req_id,
            payload: payload.to_vec(),
        });
    }

    /// The application finished a handler: emit and cache the reply.
    pub fn reply(
        &mut self,
        client_cab: u16,
        reply_mbox: u16,
        req_id: u32,
        payload: Vec<u8>,
        out: &mut Vec<RrServerAction>,
    ) {
        let slot = self.clients.entry((client_cab, reply_mbox)).or_default();
        // Only cache if this is still the current request (a newer one
        // may have superseded it while the handler ran).
        let packet =
            ReqRespHeader { kind: ReqRespKind::Reply, dst_mbox: reply_mbox, reply_mbox: 0, req_id }
                .build(&payload);
        if slot.last_req_id == req_id {
            slot.cached_reply = Some(payload);
            slot.executing = false;
        }
        self.stats.replies += 1;
        out.push(RrServerAction::Transmit { dst_cab: client_cab, packet });
    }

    /// A ReplyAck releases the cached reply.
    pub fn on_reply_ack(&mut self, client_cab: u16, hdr: &ReqRespHeader) {
        debug_assert_eq!(hdr.kind, ReqRespKind::ReplyAck);
        if let Some(slot) = self.clients.get_mut(&(client_cab, hdr.reply_mbox)) {
            if slot.last_req_id == hdr.req_id {
                slot.cached_reply = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    /// Number of replies the server holds cached.
    fn cached_replies(server: &RrServer) -> usize {
        server.clients.values().filter(|s| s.cached_reply.is_some()).count()
    }

    fn cfg() -> RrConfig {
        RrConfig { rto: SimDuration::from_micros(500), max_retries: 3 }
    }

    fn parse(packet: &[u8]) -> (ReqRespHeader, Vec<u8>) {
        let (h, p) = ReqRespHeader::parse(packet).unwrap();
        (h, p.to_vec())
    }

    #[test]
    fn call_execute_reply_roundtrip() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut server = RrServer::new();
        let mut cacts = Vec::new();
        let req_id = client.call(t(0), b"add 2 2".to_vec(), &mut cacts);
        let RrClientAction::Transmit { dst_cab, packet } = &cacts[0] else { panic!() };
        assert_eq!(*dst_cab, 2);
        let (hdr, payload) = parse(packet);
        assert_eq!(hdr.kind, ReqRespKind::Request);
        let mut sacts = Vec::new();
        server.on_request(1, &hdr, &payload, &mut sacts);
        let RrServerAction::Execute { client_cab, reply_mbox, req_id: rid, payload } = &sacts[0]
        else {
            panic!()
        };
        assert_eq!((*client_cab, *reply_mbox, *rid), (1, 11, req_id));
        assert_eq!(payload, b"add 2 2");
        // server handler executes, replies
        let mut sacts = Vec::new();
        server.reply(1, 11, req_id, b"4".to_vec(), &mut sacts);
        let RrServerAction::Transmit { packet, .. } = &sacts[0] else { panic!() };
        let (rhdr, rpayload) = parse(packet);
        let mut cacts = Vec::new();
        client.on_reply(t(100), &rhdr, &rpayload, &mut cacts);
        assert_eq!(cacts[0], RrClientAction::Response { req_id, payload: b"4".to_vec() });
        // reply-ack goes back and releases the cache
        let RrClientAction::Transmit { packet, .. } = &cacts[1] else { panic!() };
        let (ahdr, _) = parse(packet);
        assert_eq!(cached_replies(&server), 1);
        server.on_reply_ack(1, &ahdr);
        assert_eq!(cached_replies(&server), 0);
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn lost_request_retransmitted_and_deduplicated() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut server = RrServer::new();
        let mut cacts = Vec::new();
        client.call(t(0), b"q".to_vec(), &mut cacts);
        // request lost; client retries after rto
        cacts.clear();
        client.poll(t(600), &mut cacts);
        assert_eq!(cacts.len(), 1);
        assert_eq!(client.stats().retransmits, 1);
        let RrClientAction::Transmit { packet, .. } = &cacts[0] else { panic!() };
        let (hdr, payload) = parse(packet);
        let mut sacts = Vec::new();
        server.on_request(1, &hdr, &payload, &mut sacts);
        assert_eq!(sacts.len(), 1);
        // the original (delayed) copy arrives afterwards while executing:
        // absorbed, not re-executed
        let mut sacts2 = Vec::new();
        server.on_request(1, &hdr, &payload, &mut sacts2);
        assert!(sacts2.is_empty());
        assert_eq!(server.stats().requests, 1);
        assert_eq!(server.stats().duplicate_requests, 1);
    }

    #[test]
    fn lost_reply_resent_from_cache_without_reexecution() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut server = RrServer::new();
        let mut cacts = Vec::new();
        let req_id = client.call(t(0), b"increment".to_vec(), &mut cacts);
        let RrClientAction::Transmit { packet, .. } = &cacts[0] else { panic!() };
        let (hdr, payload) = parse(packet);
        let mut sacts = Vec::new();
        server.on_request(1, &hdr, &payload, &mut sacts);
        server.reply(1, 11, req_id, b"done".to_vec(), &mut Vec::new()); // reply lost
                                                                        // client retransmits the request
        let mut cacts = Vec::new();
        client.poll(t(600), &mut cacts);
        let RrClientAction::Transmit { packet, .. } = &cacts[0] else { panic!() };
        let (hdr2, payload2) = parse(packet);
        let mut sacts = Vec::new();
        server.on_request(1, &hdr2, &payload2, &mut sacts);
        // server resends from cache — exactly once semantics
        assert_eq!(sacts.len(), 1);
        assert!(matches!(sacts[0], RrServerAction::Transmit { .. }));
        assert_eq!(server.stats().cached_resends, 1);
        assert_eq!(server.stats().requests, 1);
    }

    #[test]
    fn duplicate_reply_ignored_but_reacked() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut server = RrServer::new();
        let mut cacts = Vec::new();
        let req_id = client.call(t(0), b"x".to_vec(), &mut cacts);
        let mut sacts = Vec::new();
        server.reply(1, 11, req_id, b"y".to_vec(), &mut sacts);
        let RrServerAction::Transmit { packet, .. } = &sacts[0] else { panic!() };
        let (rhdr, rpayload) = parse(packet);
        let mut c1 = Vec::new();
        client.on_reply(t(10), &rhdr, &rpayload, &mut c1);
        let mut c2 = Vec::new();
        client.on_reply(t(20), &rhdr, &rpayload, &mut c2);
        // second delivery: no Response action, but still an ack
        assert_eq!(c2.len(), 1);
        assert!(matches!(c2[0], RrClientAction::Transmit { .. }));
        assert_eq!(client.stats().duplicate_responses, 1);
        assert_eq!(client.stats().responses, 1);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut acts = Vec::new();
        let req_id = client.call(t(0), b"void".to_vec(), &mut acts);
        let mut now = t(0);
        let mut failed = false;
        for _ in 0..10 {
            now += SimDuration::from_millis(1);
            acts.clear();
            client.poll(now, &mut acts);
            if acts.contains(&RrClientAction::Failed { req_id }) {
                failed = true;
                break;
            }
        }
        assert!(failed);
        assert_eq!(client.outstanding(), 0);
        assert_eq!(client.stats().failures, 1);
    }

    #[test]
    fn concurrent_calls_tracked_independently() {
        let mut client = RrClient::new(2, 10, 11, cfg());
        let mut server = RrServer::new();
        let mut acts = Vec::new();
        let a = client.call(t(0), b"a".to_vec(), &mut acts);
        let b = client.call(t(1), b"b".to_vec(), &mut acts);
        assert_ne!(a, b);
        assert_eq!(client.outstanding(), 2);
        // reply to b first
        let mut sacts = Vec::new();
        server.reply(1, 11, b, b"B".to_vec(), &mut sacts);
        let RrServerAction::Transmit { packet, .. } = &sacts[0] else { panic!() };
        let (h, p) = parse(packet);
        let mut cacts = Vec::new();
        client.on_reply(t(50), &h, &p, &mut cacts);
        assert!(cacts.contains(&RrClientAction::Response { req_id: b, payload: b"B".to_vec() }));
        assert_eq!(client.outstanding(), 1);
    }

    #[test]
    fn new_request_supersedes_cached_reply() {
        let mut server = RrServer::new();
        let mk = |req_id: u32| ReqRespHeader {
            kind: ReqRespKind::Request,
            dst_mbox: 10,
            reply_mbox: 11,
            req_id,
        };
        let mut acts = Vec::new();
        server.on_request(1, &mk(1), b"one", &mut acts);
        server.reply(1, 11, 1, b"ONE".to_vec(), &mut acts);
        assert_eq!(cached_replies(&server), 1);
        // client moved on without acking; its next call releases the slot
        acts.clear();
        server.on_request(1, &mk(2), b"two", &mut acts);
        assert_eq!(cached_replies(&server), 0);
        assert!(matches!(acts[0], RrServerAction::Execute { .. }));
        // a stale request id 1 now gets nothing (no cache, older id)
        acts.clear();
        server.on_request(1, &mk(1), b"one", &mut acts);
        assert!(acts.is_empty());
    }

    #[test]
    fn late_reply_for_superseded_request_not_cached() {
        let mut server = RrServer::new();
        let mk = |req_id: u32| ReqRespHeader {
            kind: ReqRespKind::Request,
            dst_mbox: 10,
            reply_mbox: 11,
            req_id,
        };
        let mut acts = Vec::new();
        server.on_request(1, &mk(1), b"slow", &mut acts);
        server.on_request(1, &mk(2), b"fast", &mut acts);
        // the slow handler for request 1 finishes late
        acts.clear();
        server.reply(1, 11, 1, b"SLOW".to_vec(), &mut acts);
        // reply still transmitted (client will ignore it) but not cached
        assert_eq!(acts.len(), 1);
        assert_eq!(cached_replies(&server), 0);
    }
}
