package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Counters are the cluster's optional telemetry instruments; all nil-safe.
type Counters struct {
	PeerHits    *telemetry.Counter // entries served by a shard owner
	PeerMisses  *telemetry.Counter // owner consulted, entry not there
	PeerErrors  *telemetry.Counter // owner unreachable / bad response / corrupt body
	Offers      *telemetry.Counter // entries offered to their shard owner
	OfferErrors *telemetry.Counter // offers that failed (absorbed)
	BreakerOpen *telemetry.Counter // per-peer breaker trips
}

// Options configure a Cluster.
type Options struct {
	// Self is this node's advertised address (scheme://host:port); it is a
	// ring member like any peer.
	Self string
	// Peers are the other nodes' addresses. Self is filtered out if listed.
	Peers []string
	// VNodes per ring member; DefaultVNodes if <= 0.
	VNodes int
	// Timeout bounds each peer call (default 2s). A shard owner slower than
	// this is worth less than rewriting locally.
	Timeout time.Duration
	// FailThreshold is consecutive failures before a peer's breaker opens
	// (default 3); Cooldown is how long it stays open (default 5s).
	FailThreshold int
	Cooldown      time.Duration
	// Transport overrides the HTTP transport (tests); nil uses the default.
	Transport http.RoundTripper

	Met Counters
}

// Cluster routes keys to shard owners over static membership. A dead or
// misbehaving peer is health-gated by a per-peer circuit breaker: while the
// breaker is open, keys it owns are served by local rewrites (correct,
// just less cache-efficient), and a probe is allowed through after the
// cooldown to detect recovery.
type Cluster struct {
	self  string
	ring  *Ring
	peers map[string]*peer
	met   Counters

	peerHits, peerMisses, peerErrors atomic.Uint64
	offers, offerErrors              atomic.Uint64
}

// peer is one remote node plus its health state.
type peer struct {
	addr   string
	remote *Remote

	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	trips     uint64
}

// New builds a Cluster, or nil if Options names no peers (single-node mode:
// callers treat a nil *Cluster as "everything is local").
func New(opts Options) *Cluster {
	var others []string
	for _, p := range opts.Peers {
		if p != "" && p != opts.Self {
			others = append(others, p)
		}
	}
	if len(others) == 0 {
		return nil
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 5 * time.Second
	}
	client := &http.Client{Timeout: opts.Timeout, Transport: opts.Transport}
	c := &Cluster{
		self:  opts.Self,
		ring:  NewRing(append([]string{opts.Self}, others...), opts.VNodes),
		peers: make(map[string]*peer, len(others)),
		met:   opts.Met,
	}
	for _, addr := range others {
		c.peers[addr] = &peer{
			addr:      addr,
			remote:    NewRemote(addr, client),
			threshold: opts.FailThreshold,
			cooldown:  opts.Cooldown,
		}
	}
	return c
}

// Self returns this node's advertised address.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the membership ring (tests, stats).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the address owning key and whether that is this node.
func (c *Cluster) Owner(key string) (addr string, local bool) {
	addr = c.ring.Owner(key)
	return addr, addr == c.self
}

// Fetch asks key's shard owner for the entry. It returns (nil, "", false)
// whenever the answer is "rewrite locally": the key is self-owned, the
// owner's breaker is open, the owner missed, or the owner failed (which
// also feeds the breaker). On a hit it returns the verified entry and the
// owner's address.
func (c *Cluster) Fetch(ctx context.Context, key string) (*store.Entry, string, bool) {
	addr, local := c.Owner(key)
	if local {
		return nil, "", false
	}
	p := c.peers[addr]
	if p == nil || !p.allow() {
		return nil, "", false
	}
	e, ok, err := p.remote.Get(ctx, key)
	if err != nil {
		p.failure(c)
		c.peerErrors.Add(1)
		c.met.PeerErrors.Inc()
		return nil, "", false
	}
	p.success()
	if !ok {
		c.peerMisses.Add(1)
		c.met.PeerMisses.Inc()
		return nil, "", false
	}
	c.peerHits.Add(1)
	c.met.PeerHits.Inc()
	return e, addr, true
}

// Offer pushes an entry to its shard owner so the next cluster-wide request
// for it is a peer hit. No-op when the key is self-owned or the owner's
// breaker is open; failures are absorbed (the entry is reproducible) but
// feed the breaker.
func (c *Cluster) Offer(ctx context.Context, e *store.Entry) {
	addr, local := c.Owner(e.Key)
	if local {
		return
	}
	p := c.peers[addr]
	if p == nil || !p.allow() {
		return
	}
	c.offers.Add(1)
	c.met.Offers.Inc()
	if err := p.remote.Put(ctx, e); err != nil {
		p.failure(c)
		c.CountOfferError()
		return
	}
	p.success()
}

// CountOfferError records a failed offer, in Stats and in the metrics
// counter alike. Offer calls it itself; a caller that recovers a panic
// around Offer calls it so the failure is not lost.
func (c *Cluster) CountOfferError() {
	c.offerErrors.Add(1)
	c.met.OfferErrors.Inc()
}

// allow reports whether a call to this peer may proceed. An open breaker
// rejects until the cooldown elapses, then lets one probe through (the
// next failure re-opens, a success closes).
func (p *peer) allow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(p.openUntil) {
		return false
	}
	// Half-open: allow the probe, and push the window forward so a stream
	// of callers does not all pile onto a possibly-dead peer at once.
	p.openUntil = time.Now().Add(p.cooldown)
	return true
}

func (p *peer) success() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails = 0
	p.openUntil = time.Time{}
}

func (p *peer) failure(c *Cluster) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	// Open at the threshold, and re-open immediately on a failed half-open
	// probe (openUntil non-zero means the breaker never closed).
	if p.fails >= p.threshold || !p.openUntil.IsZero() {
		p.openUntil = time.Now().Add(p.cooldown)
		p.trips++
		c.met.BreakerOpen.Inc()
	}
}

// PeerHealth is one peer's health snapshot.
type PeerHealth struct {
	Addr string `json:"addr"`
	// Open means the breaker is rejecting calls (local fallback in effect).
	Open bool `json:"open"`
	// Fails is the current consecutive-failure count.
	Fails int `json:"fails"`
	// Trips counts how many times the breaker has opened.
	Trips uint64 `json:"trips"`
}

// Stats is the cluster's point-in-time snapshot for /stats.
type Stats struct {
	Self        string       `json:"self"`
	Nodes       []string     `json:"nodes"`
	Peers       []PeerHealth `json:"peers"`
	PeerHits    uint64       `json:"peer_hits"`
	PeerMisses  uint64       `json:"peer_misses"`
	PeerErrors  uint64       `json:"peer_errors"`
	Offers      uint64       `json:"offers"`
	OfferErrors uint64       `json:"offer_errors"`
}

// Snapshot returns the cluster's stats.
func (c *Cluster) Snapshot() Stats {
	s := Stats{
		Self:        c.self,
		Nodes:       c.ring.Nodes(),
		PeerHits:    c.peerHits.Load(),
		PeerMisses:  c.peerMisses.Load(),
		PeerErrors:  c.peerErrors.Load(),
		Offers:      c.offers.Load(),
		OfferErrors: c.offerErrors.Load(),
	}
	for _, p := range c.peers {
		p.mu.Lock()
		s.Peers = append(s.Peers, PeerHealth{
			Addr:  p.addr,
			Open:  !p.openUntil.IsZero() && time.Now().Before(p.openUntil),
			Fails: p.fails,
			Trips: p.trips,
		})
		p.mu.Unlock()
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr < s.Peers[j].Addr })
	return s
}
