// Package federation aggregates many leaf psd daemons into one head: the
// multi-daemon tier that lets a fleet platform scale past one host. Leaf
// daemons serve their local fleets unchanged over the existing HTTP APIs;
// a Head polls every leaf's /api/fleet on a bounded worker pool — each
// poll with its own timeout, retry-with-backoff, and a per-leaf circuit
// breaker — and merges the leaf views into one namespaced exposition and
// one merged JSON fleet. A dead or slow leaf degrades the aggregate view
// instead of stalling it: its last-known stations serve marked stale,
// powersensor_leaf_up drops to 0, and its breaker caps what the failure
// can cost the poll loop.
//
// Topology:
//
//	scrapers ──▶ head psd ──┬─▶ leaf psd (fleet A, block-paced)
//	  heavy      (-federate)├─▶ leaf psd (fleet B)
//	  polling               └─▶ leaf psd (fleet C)
//
// The head absorbs scrape fan-in — it answers /metrics from per-leaf
// cached segments keyed by each leaf's fleet generation (carried in the
// /api/fleet body and its ETag), so repeat scrapes of a quiet leaf are
// memcpys and a quiet leaf is never refetched in full (If-None-Match
// answers 304). Per-device drill-downs proxy to the owning leaf:
// /api/device/{leaf}/{name}/energy and friends.
package federation

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// Leaf names one leaf daemon: a stable name (the leaf label on every
// merged series) and the base URL of its HTTP API.
type Leaf struct {
	Name string
	URL  string
}

// Config tunes a Head. The zero value of every field takes a default.
type Config struct {
	// Leaves are the leaf daemons to aggregate. Required, and names must
	// be unique — the leaf label is what keeps duplicate station names
	// across leaves distinct.
	Leaves []Leaf
	// Interval is the poll cadence (default 1 s). Every Interval the head
	// polls all leaves concurrently on the worker pool.
	Interval time.Duration
	// Timeout bounds one poll attempt against one leaf (default
	// Interval/2, clamped to [50 ms, 2 s]). A slow leaf fails its poll at
	// the deadline instead of delaying the round's other leaves.
	Timeout time.Duration
	// Retries is how many extra in-poll attempts follow a failed one
	// (default 1; negative means none). Retries back off exponentially
	// from RetryBackoff.
	Retries int
	// RetryBackoff is the first retry's delay (default 50 ms), doubling
	// per attempt.
	RetryBackoff time.Duration
	// FailThreshold is the consecutive-failure count that opens a leaf's
	// circuit breaker (default 3).
	FailThreshold int
	// OpenFor is how long an open breaker rejects polls before admitting
	// a half-open probe (default 4×Interval).
	OpenFor time.Duration
	// Workers bounds how many leaves poll concurrently within one round
	// (default min(8, leaf count)).
	Workers int
	// EventCap is the capacity of the head's lifecycle event ring
	// (default 256): leaf up/down transitions and breaker state changes.
	EventCap int
	// Client is the HTTP client polls and proxies ride (default a fresh
	// http.Client; per-attempt contexts carry the timeouts). Tests
	// inject httptest clients here.
	Client *http.Client
	// Now is the poller's clock, driving breaker cooldowns (default
	// time.Now). Tests inject a fake clock to step breaker states
	// deterministically.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
		if c.Timeout < 50*time.Millisecond {
			c.Timeout = 50 * time.Millisecond
		}
		if c.Timeout > 2*time.Second {
			c.Timeout = 2 * time.Second
		}
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 4 * c.Interval
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.EventCap <= 0 {
		c.EventCap = 256
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Leaf up/down states, tracked as an int so the initial state is
// "unknown" — the first poll outcome emits an event either way.
const (
	leafUnknown int32 = iota
	leafDown
	leafUp
)

// leafState is the head's view of one leaf.
type leafState struct {
	leaf    Leaf
	client  leafClient
	breaker *Breaker

	// Pre-rendered exposition fragments for the per-leaf self families.
	labelBlock   string // {leaf="X"}
	scrapeSeries *export.HistSeries

	// Poll telemetry: lock-free for the scrape path.
	polls      atomic.Uint64
	failures   atomic.Uint64
	renders    atomic.Uint64
	upState    atomic.Int32 // leafUnknown/leafDown/leafUp
	lastBreak  atomic.Int32 // last breaker state published as an event
	scrapeHist obs.Hist     // wall time of one poll (all attempts)

	// mu guards the view and its render. Polls (one in flight per leaf,
	// enforced by inflight) write; scrapes copy segments out under it.
	mu            sync.Mutex
	inflight      bool
	view          *export.FleetJSON // last-known-good fleet view
	etag          string
	stale         bool // the view is served as stale (leaf down)
	lastErr       string
	renderer      *export.LeafRenderer
	renderedGen   uint64
	renderedStale bool
	hasRender     bool
	staleScratch  []fleet.Status
}

// up reports whether the leaf's last poll succeeded.
func (ls *leafState) up() bool { return ls.upState.Load() == leafUp }

// Head aggregates leaf daemons: poll loop, merged views, HTTP surface.
type Head struct {
	cfg    Config
	leaves []*leafState
	byName map[string]*leafState
	events *obs.EventRing
	rounds atomic.Uint64

	// scratch pools per-scrape working state: the body buffer, staged
	// per-leaf segment copies, and a histogram snapshot.
	scratch sync.Pool

	mu      sync.Mutex
	stop    chan struct{}
	loopWG  sync.WaitGroup
	started bool
}

// headScrapeState is one head scrape's reusable working memory.
type headScrapeState struct {
	buf  []byte
	segs []export.LeafSegment
	hs   obs.HistSnapshot
}

// New returns a head over cfg.Leaves. It neither polls nor serves yet:
// call PollOnce for a synchronous first round (so the first scrape
// already sees data), Start for the poll loop, Handler for the HTTP
// surface.
func New(cfg Config) (*Head, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Leaves) == 0 {
		return nil, fmt.Errorf("federation: no leaves configured")
	}
	h := &Head{
		cfg:    cfg,
		byName: make(map[string]*leafState, len(cfg.Leaves)),
		events: obs.NewEventRing(cfg.EventCap),
	}
	for _, l := range cfg.Leaves {
		if l.Name == "" {
			return nil, fmt.Errorf("federation: leaf with empty name (url %q)", l.URL)
		}
		if l.URL == "" {
			return nil, fmt.Errorf("federation: leaf %s has no URL", l.Name)
		}
		if _, dup := h.byName[l.Name]; dup {
			return nil, fmt.Errorf("federation: duplicate leaf name %q", l.Name)
		}
		l.URL = trimURL(l.URL)
		ls := &leafState{
			leaf:       l,
			client:     leafClient{name: l.Name, url: l.URL, http: cfg.Client},
			breaker:    NewBreaker(cfg.FailThreshold, cfg.OpenFor),
			labelBlock: `{leaf="` + export.Escape(l.Name) + `"}`,
			scrapeSeries: export.NewHistSeries(famLeafScrape,
				`leaf="`+export.Escape(l.Name)+`"`),
			renderer: export.NewLeafRenderer(l.Name),
		}
		ls.lastBreak.Store(int32(BreakerClosed))
		h.leaves = append(h.leaves, ls)
		h.byName[l.Name] = ls
	}
	if h.cfg.Workers > len(h.leaves) {
		h.cfg.Workers = len(h.leaves)
	}
	h.scratch.New = func() any {
		return &headScrapeState{
			buf:  make([]byte, 0, 16<<10),
			segs: make([]export.LeafSegment, len(h.leaves)),
		}
	}
	return h, nil
}

// Leaves returns the configured leaf count.
func (h *Head) Leaves() int { return len(h.leaves) }

// Events returns the head's lifecycle event ring: one entry per leaf
// up/down transition and per breaker state change.
func (h *Head) Events() *obs.EventRing { return h.events }

// Rounds returns how many poll rounds have completed.
func (h *Head) Rounds() uint64 { return h.rounds.Load() }

// UpCount returns how many leaves the last polls found serving.
func (h *Head) UpCount() int {
	n := 0
	for _, ls := range h.leaves {
		if ls.up() {
			n++
		}
	}
	return n
}

// Start launches the poll loop: an immediate first round, then one round
// per Interval. Stop ends it.
func (h *Head) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return
	}
	h.started = true
	h.stop = make(chan struct{})
	h.loopWG.Add(1)
	go h.loop(h.stop)
}

func (h *Head) loop(stop chan struct{}) {
	defer h.loopWG.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-stop
		cancel()
	}()
	h.PollOnce(ctx)
	tick := time.NewTicker(h.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			h.PollOnce(ctx)
		}
	}
}

// Stop ends the poll loop and waits for the in-flight round to finish.
// The HTTP surface keeps serving the last-polled views; Stop is the
// drain step of a graceful shutdown, not a teardown of state.
func (h *Head) Stop() {
	h.mu.Lock()
	if !h.started {
		h.mu.Unlock()
		return
	}
	h.started = false
	close(h.stop)
	h.mu.Unlock()
	h.loopWG.Wait()
}

// PollOnce runs one poll round: every leaf, dispatched across at most
// Config.Workers concurrent polls, each bounded by the per-leaf timeout
// and retry budget. It returns when the round completes — a slow or dead
// leaf delays the round by at most Timeout×(Retries+1) plus backoff, and
// an open breaker costs only the decision.
func (h *Head) PollOnce(ctx context.Context) {
	n := h.cfg.Workers
	if n > len(h.leaves) {
		n = len(h.leaves)
	}
	if n <= 1 {
		for _, ls := range h.leaves {
			h.pollLeaf(ctx, ls)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(h.leaves) {
						return
					}
					h.pollLeaf(ctx, h.leaves[i])
				}
			}()
		}
		wg.Wait()
	}
	h.rounds.Add(1)
}

// pollLeaf runs one leaf's poll: breaker gate, fetch with retries,
// outcome bookkeeping. One poll per leaf is in flight at a time — if a
// previous round's poll is still running (a slow leaf slower than the
// interval), this round skips the leaf rather than stacking requests.
func (h *Head) pollLeaf(ctx context.Context, ls *leafState) {
	ls.mu.Lock()
	if ls.inflight {
		ls.mu.Unlock()
		return
	}
	ls.inflight = true
	etag := ls.etag
	var prev []fleet.Status
	if ls.view != nil {
		prev = ls.view.Devices
	}
	ls.mu.Unlock()
	defer func() {
		ls.mu.Lock()
		ls.inflight = false
		ls.mu.Unlock()
	}()

	if !ls.breaker.Allow(h.cfg.Now()) {
		h.noteBreaker(ls)
		return
	}
	h.noteBreaker(ls) // open → half-open transition happens inside Allow

	ls.polls.Add(1)
	began := time.Now()
	view, newETag, notModified, err := h.fetch(ctx, ls, etag, prev)
	ls.scrapeHist.Record(time.Since(began))
	if err != nil {
		ls.failures.Add(1)
		ls.breaker.Failure(h.cfg.Now())
		h.noteBreaker(ls)
		h.markDown(ls, err)
		return
	}
	ls.breaker.Success()
	h.noteBreaker(ls)
	h.markUp(ls, view, newETag, notModified)
}

// fetch attempts the leaf's /api/fleet up to 1+Retries times, each
// attempt under its own Timeout, backing off exponentially between
// attempts. Cancellation of ctx (head stopping) aborts the retry loop.
func (h *Head) fetch(ctx context.Context, ls *leafState, etag string, prev []fleet.Status) (view *export.FleetJSON, newETag string, notModified bool, err error) {
	backoff := h.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, h.cfg.Timeout)
		view, newETag, notModified, err = ls.client.fetchFleet(actx, etag, prev)
		cancel()
		if err == nil || attempt >= h.cfg.Retries || ctx.Err() != nil {
			return view, newETag, notModified, err
		}
		select {
		case <-ctx.Done():
			return nil, "", false, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// noteBreaker publishes the breaker's state as an event when it changed
// since the last note.
func (h *Head) noteBreaker(ls *leafState) {
	st := int32(ls.breaker.State())
	if prev := ls.lastBreak.Swap(st); prev != st {
		h.events.Append(obs.EventBreaker, ls.leaf.Name, "leaf", BreakerState(st).String())
	}
}

// markUp records a successful poll: the view (or, on 304, the retained
// one) serves fresh, and a down→up transition re-renders without the
// stale overlay and logs the recovery.
func (h *Head) markUp(ls *leafState, view *export.FleetJSON, newETag string, notModified bool) {
	ls.mu.Lock()
	ls.lastErr = ""
	if notModified {
		// Quiet leaf: the retained view is still current. Only a stale
		// overlay (down→up with an unchanged generation) forces a
		// re-render.
		ls.stale = false
	} else {
		ls.view = view
		ls.etag = newETag
		ls.stale = false
	}
	if ls.view != nil && (!ls.hasRender || ls.renderedStale || ls.renderedGen != ls.view.Generation) {
		ls.renderer.Render(ls.view.Devices)
		ls.renderedGen = ls.view.Generation
		ls.renderedStale = false
		ls.hasRender = true
		ls.renders.Add(1)
	}
	ls.mu.Unlock()
	if prev := ls.upState.Swap(leafUp); prev != leafUp {
		h.events.Append(obs.EventLeaf, ls.leaf.Name, "leaf", "up")
	}
}

// markDown records a failed poll: the last-known view re-renders with
// every station's health overridden to stale (the head is serving
// history, not telemetry), the ETag drops so recovery refetches in full
// (a restarted leaf resets its generations), and the transition logs
// once per episode.
func (h *Head) markDown(ls *leafState, err error) {
	ls.mu.Lock()
	ls.lastErr = err.Error()
	ls.etag = ""
	ls.stale = true
	if ls.view != nil && !ls.renderedStale {
		ls.staleScratch = append(ls.staleScratch[:0], ls.view.Devices...)
		for i := range ls.staleScratch {
			ls.staleScratch[i].Health = fleet.HealthStale
		}
		ls.renderer.Render(ls.staleScratch)
		ls.renderedGen = ls.view.Generation
		ls.renderedStale = true
		ls.hasRender = true
		ls.renders.Add(1)
	}
	ls.mu.Unlock()
	if prev := ls.upState.Swap(leafDown); prev != leafDown {
		h.events.Append(obs.EventLeaf, ls.leaf.Name, "leaf", "down")
	}
}

// Generation returns a fingerprint of the head's merged state: each
// leaf's last-seen fleet generation folded with its up/stale
// disposition. It changes whenever any leaf's view or health changes —
// the condition under which any head-derived rendering goes stale.
func (h *Head) Generation() uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	g := uint64(fnvOffset64)
	mix := func(v uint64) {
		g ^= v
		g *= fnvPrime64
	}
	for _, ls := range h.leaves {
		ls.mu.Lock()
		var gen uint64
		if ls.view != nil {
			gen = ls.view.Generation
		}
		stale := ls.stale
		ls.mu.Unlock()
		mix(gen)
		if stale {
			mix(1)
		}
		mix(uint64(ls.upState.Load()))
	}
	return g
}
