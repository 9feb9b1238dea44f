package serve

import (
	"fmt"
	"math"

	"cross/internal/faults"
)

// rng is a splitmix64 PRNG. The simulator owns its generator rather
// than using math/rand so the determinism contract depends on nothing
// but this file: the stream for a given seed can never drift with a
// toolchain upgrade. (The fault model owns separate streams in
// internal/faults, seeded independently — the same arrival trace
// replays under different fault seeds and vice versa.)
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// exp returns an exponential draw with the given rate (mean 1/rate) —
// the open-loop Poisson inter-arrival time.
func (r *rng) exp(rate float64) float64 {
	// 1−u ∈ (0, 1], so the log argument is never zero.
	return -math.Log(1-r.float64()) / rate
}

// Event kinds, in deterministic tie-break vocabulary: events at the
// same instant fire in insertion order (seq), which the single
// sequential loop makes total. Arrivals are not events: run merges
// them from the request table (see newSim).
const (
	evDeadline = iota // batch-hold deadline (MaxDelayS)
	evDone            // a launch finished on a pod (aux = exec id)
	evCrash           // pod crash (fault injector)
	evRecover         // pod recovery
	evSuspect         // heartbeat timeout: mark a crashed pod down (aux = gen)
	evSlowOn          // straggler window opens
	evSlowOff         // straggler window closes
	evTimeout         // per-request deadline expired (req)
	evRetry           // backoff elapsed: re-dispatch a lost request (req)
	evHedge           // hedge delay elapsed for a batch (aux = batch id)
)

type event struct {
	at   float64
	seq  int64
	kind int
	pod  int
	req  int // request index (timeout/retry)
	aux  int // exec id (done), batch id (hedge), pod generation (suspect)
}

// eventHeap is a binary min-heap on (time, insertion sequence). Seqs
// are unique, so the pop order is the total (at, seq) order whatever
// the heap's internal layout.
type eventHeap []event

// before is the heap order: earlier time first, ties by seq.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event; the heap must be
// non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Request states. Terminal states are stDone (delivered within
// deadline), stLate (delivered after its deadline — already counted
// timed out), stTimedOut, stShed, and stFailed.
const (
	stQueued    = iota // waiting in a pod's class FIFO
	stInFlight         // member of a running launch
	stRetryWait        // lost to a crash/batch error; backoff pending
	stDone
	stLate
	stTimedOut
	stShed
	stFailed
)

// request is one offered unit of work.
type request struct {
	class    int // mix index
	arrival  float64
	finish   float64
	deadline float64 // absolute; +Inf when none
	state    int
	pod      int // queue owner while stQueued
	retries  int // re-dispatches consumed
}

// exec is one physical launch of a batch on one pod (hedging can run
// two execs of the same logical batch).
type exec struct {
	batch int
	pod   int
	start float64
	svc   float64 // actual (straggler-inflated) service time
	fails bool    // transient batch error drawn at launch
	hedge bool
}

// batchState is one logical batch: the member requests plus the execs
// still running it. At most two execs are ever live (the primary and
// one hedge — evHedge refuses a second hedge), so the live set is a
// fixed array, not a heap-allocated slice.
type batchState struct {
	class   int
	members []int
	live    [2]int // exec ids still running
	nlive   int
	won     bool // delivered (first exec to finish cleanly wins)
	hedged  bool
}

func (b *batchState) addLive(ei int) {
	b.live[b.nlive] = ei
	b.nlive++
}

func (b *batchState) removeLive(ei int) {
	switch {
	case b.nlive > 0 && b.live[0] == ei:
		b.live[0] = b.live[1]
		b.nlive--
	case b.nlive > 1 && b.live[1] == ei:
		b.nlive--
	}
}

// intQueue is an index-tracked FIFO of request ids: O(1) amortised
// push/pop via a head offset, replacing the O(n) slice splice the
// pre-refactor per-class queues paid on every timeout dequeue (which
// dominates at 10^6+-request horizons). The backing array compacts
// once the dead prefix is both long and the majority, so memory stays
// proportional to the live queue.
type intQueue struct {
	buf  []int
	head int
}

func (q *intQueue) push(id int) { q.buf = append(q.buf, id) }
func (q *intQueue) peek() int   { return q.buf[q.head] }
func (q *intQueue) pop() int {
	v := q.buf[q.head]
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
func (q *intQueue) reset() { q.buf = q.buf[:0]; q.head = 0 }

// podState is one pod's runtime state: per-class FIFO queues, the
// running launch, the fault-model state, and its share of the run's
// statistics. Queue removal is lazy: a request that times out while
// queued just stops being stQueued, and its queue entry is discarded
// when it reaches the head — nq tracks the live count per class.
type podState struct {
	queues    []intQueue // per-class FIFOs of request indices
	nq        []int      // per-class live (still-queued) counts
	queued    int
	backlogS  float64 // estimated queued base work (least-loaded/cheapest)
	busy      bool
	cur       int // exec id + 1 while busy (0 = idle); stale evDone detector
	busyUntil float64
	deadline  float64 // earliest armed batching deadline (+Inf when none)

	up        bool    // crashed pods cannot launch
	suspected bool    // heartbeat timeout fired: dispatch skips the pod
	gen       int     // crash generation (stale evSuspect detector)
	slow      float64 // service-time multiplier (1 = healthy)
	downSince float64
	downtimeS float64

	served, batches, maxDepth int
	busyS                     float64
}

// sim is one serving run in flight.
type sim struct {
	cfg       Config
	pt        *priceTable
	fc        *faults.Config // nil = fault-free (bit-identical legacy path)
	inj       *faults.Injector
	reqs      []request
	next      int // arrival cursor: reqs[next:] have not arrived yet
	pods      []podState
	execs     []exec
	batches   []batchState
	memberBuf []int // arena the batches' member lists are cut from
	h         eventHeap
	seq       int64
	rr        int // round-robin cursor
	pending   int // requests not yet in a terminal state

	// SLO wiring (identity values when Config.Classes is empty).
	classPrio   []int // [mix class] launch priority
	mixSLO      []int // [mix class] SLO-class index, -1 = implicit default
	classQueued []int // [SLO class] fleet-wide queued count (nil without classes)

	retries, hedges, hedgesWon, crashes, batchErrors int
	shed, timedOut, failed, late                     int
}

// newSim builds the run's state. Arrivals are drawn from the source up
// front into s.reqs, in source order, but never enter the event heap:
// run merges a cursor over s.reqs with the heap top. Arrival i has the
// implicit sequence number i and every pushed event a larger one
// (s.seq starts at len(s.reqs)), so the merge — an arrival goes first
// when its time is at most the heap top's — is the total (time, seq)
// order the determinism contract promises, given that arrival times
// never decrease. drawArrivals enforces that.
func newSim(cfg Config, pt *priceTable) (*sim, error) {
	pods := cfg.totalPods()
	s := &sim{cfg: cfg, pt: pt, fc: cfg.Faults, pods: make([]podState, pods)}
	for i := range s.pods {
		s.pods[i].queues = make([]intQueue, len(cfg.Mix))
		s.pods[i].nq = make([]int, len(cfg.Mix))
		s.pods[i].deadline = math.Inf(1)
		s.pods[i].up = true
		s.pods[i].slow = 1
	}

	// SLO wiring: map each mix class to its SLO class (if any), its
	// launch priority, and its effective deadline — the class deadline
	// when set, else the fleet-wide fault deadline, else none.
	s.mixSLO = make([]int, len(cfg.Mix))
	s.classPrio = make([]int, len(cfg.Mix))
	fleetDeadline := math.Inf(1)
	if s.fc != nil && s.fc.DeadlineS > 0 {
		fleetDeadline = s.fc.DeadlineS
	}
	deadlines := make([]float64, len(cfg.Mix))
	sloIdx := make(map[string]int, len(cfg.Classes))
	for i, c := range cfg.Classes {
		sloIdx[c.Name] = i
	}
	if len(cfg.Classes) > 0 {
		s.classQueued = make([]int, len(cfg.Classes))
	}
	for w, e := range cfg.Mix {
		s.mixSLO[w] = -1
		deadlines[w] = fleetDeadline
		if e.Class == "" {
			continue
		}
		si := sloIdx[e.Class]
		s.mixSLO[w] = si
		s.classPrio[w] = cfg.Classes[si].Priority
		if d := cfg.Classes[si].DeadlineS; d > 0 {
			deadlines[w] = d
		}
	}

	// Arrivals from the configured source: the seeded Poisson process
	// (the legacy stream, draw-for-draw identical), trace replay, or a
	// caller-supplied source. The request table is pre-sized from the
	// expected count: exact for a trace, the Poisson mean m plus five
	// standard deviations for the default process.
	src := cfg.Source
	sizeHint := 0
	if src == nil {
		if len(cfg.TraceEvents) > 0 {
			classOf := make(map[string]int, len(cfg.Mix))
			for w, e := range cfg.Mix {
				classOf[e.Workload] = w
			}
			src = &traceSource{events: cfg.TraceEvents, classOf: classOf, horizon: cfg.HorizonS}
			sizeHint = len(cfg.TraceEvents)
		} else {
			src = newPoissonSource(cfg.Seed, cfg.Rate, cfg.HorizonS, cfg.Mix)
			if m := cfg.Rate * cfg.HorizonS; m > 0 {
				sizeHint = int(math.Min(m+5*math.Sqrt(m)+16, float64(requestCap(cfg.Stats))))
			}
		}
	}
	// prepare already bounds the built-in sources (the trace length, the
	// Poisson expectation); only a custom source's count is capped here.
	reqCap := math.MaxInt
	if cfg.Source != nil {
		reqCap = requestCap(cfg.Stats)
	}
	if err := s.drawArrivals(src, deadlines, sizeHint, reqCap); err != nil {
		return nil, err
	}
	// A fault-free run's batch members fill exactly one request table's
	// worth of arena; retries start further chunks (maybeLaunch).
	s.memberBuf = make([]int, 0, len(s.reqs))

	// Fault timelines: each pod's first crash and first straggler
	// window, drawn from its own streams (no dependency on the request
	// stream, and — because streams are split per pod index — no
	// dependency on how the fleet is grouped). Subsequent events chain
	// from the handlers.
	if s.fc != nil {
		s.inj = faults.NewInjector(*s.fc, pods)
		for i := range s.pods {
			if d, ok := s.inj.NextCrashDelay(i); ok {
				s.push(event{at: d, kind: evCrash, pod: i})
			}
			if d, ok := s.inj.NextStragglerDelay(i); ok {
				s.push(event{at: d, kind: evSlowOn, pod: i})
			}
		}
	}
	return s, nil
}

// drawArrivals fills s.reqs from src until it reports ok = false. It
// fails with ErrArrivalOrder on a NaN or decreasing time (the arrival
// cursor relies on the order), with ErrArrivalClass on a class index
// outside the mix, and with ErrRequestCap once more than reqCap
// arrivals are drawn (a source that never ends would otherwise loop
// without bound). On success the sim's pending count and event
// sequence start after the arrivals.
func (s *sim) drawArrivals(src ArrivalSource, deadlines []float64, sizeHint, reqCap int) error {
	s.reqs = make([]request, 0, sizeHint)
	prev := math.Inf(-1)
	for {
		t, class, ok := src.Next()
		if !ok {
			break
		}
		if !(t >= prev) {
			return fmt.Errorf("%w: arrival %d at %g after %g", ErrArrivalOrder, len(s.reqs), t, prev)
		}
		if class < 0 || class >= len(deadlines) {
			return fmt.Errorf("%w: arrival %d has class %d, the mix has %d", ErrArrivalClass, len(s.reqs), class, len(deadlines))
		}
		if len(s.reqs) == reqCap {
			return fmt.Errorf("%w: the source offered more than %d requests", ErrRequestCap, reqCap)
		}
		prev = t
		s.reqs = append(s.reqs, request{class: class, arrival: t, deadline: t + deadlines[class]})
	}
	s.pending = len(s.reqs)
	s.seq = int64(len(s.reqs))
	return nil
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.h.push(e)
}

// noteEnqueued/noteDequeued keep the pod-level and fleet-wide
// class-queue accounting exact as entries come and go.
func (s *sim) noteEnqueued(p *podState, class int) {
	p.queued++
	p.nq[class]++
	if s.classQueued != nil {
		if si := s.mixSLO[class]; si >= 0 {
			s.classQueued[si]++
		}
	}
}

func (s *sim) noteDequeued(p *podState, class int) {
	p.queued--
	p.nq[class]--
	if s.classQueued != nil {
		if si := s.mixSLO[class]; si >= 0 {
			s.classQueued[si]--
		}
	}
}

// dispatch picks the pod a fresh arrival (or re-dispatch) joins. Pods
// detected down by a heartbeat timeout are skipped — a just-crashed
// pod still receives dispatches until its evSuspect fires (no oracle
// knowledge). If every pod is suspected the filter is dropped: the
// request queues and waits out the outage.
func (s *sim) dispatch(req int, now float64) int {
	eligible := func(i int) bool { return !s.pods[i].suspected }
	any := false
	for i := range s.pods {
		if eligible(i) {
			any = true
			break
		}
	}
	if !any {
		eligible = func(int) bool { return true }
	}
	switch s.cfg.Policy {
	case PolicyLeastLoaded:
		// Least total outstanding work: remaining service of the running
		// batch plus the estimated queued work. Ties go to the lowest
		// index, so the choice is deterministic.
		best, bestLoad := -1, math.Inf(1)
		for i := range s.pods {
			if !eligible(i) {
				continue
			}
			p := &s.pods[i]
			load := p.backlogS
			if p.busy {
				load += p.busyUntil - now
			}
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	case PolicyJSQ:
		best, bestLen := -1, math.MaxInt
		for i := range s.pods {
			if !eligible(i) {
				continue
			}
			if l := s.pods[i].queued + s.inFlightCount(i); l < bestLen {
				best, bestLen = i, l
			}
		}
		return best
	case PolicyCheapest:
		// Minimum committed dollar-time: the pod's expected drain time
		// for this request (queued work + remaining busy time + the
		// request's own service on this part) weighted by the pod's
		// hourly price. On a homogeneous fleet this degrades to
		// least-loaded; on a mixed fleet it prefers the cheapest pod
		// that is not already backed up. Ties go to the lowest index.
		best, bestScore := -1, math.Inf(1)
		class := s.reqs[req].class
		for i := range s.pods {
			if !eligible(i) {
				continue
			}
			p := &s.pods[i]
			g := s.pt.groupOf(i)
			wait := p.backlogS
			if p.busy {
				wait += p.busyUntil - now
			}
			score := g.dollarPerHour / 3600 * (wait + g.base[class])
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		return best
	default: // round-robin
		for range s.pods {
			p := s.rr % len(s.pods)
			s.rr++
			if eligible(p) {
				return p
			}
		}
		return s.rr % len(s.pods) // unreachable: eligible always admits someone
	}
}

// inFlightCount is the number of requests the pod's running launch
// holds (JSQ counts them as queue occupancy).
func (s *sim) inFlightCount(pi int) int {
	p := &s.pods[pi]
	if !p.busy {
		return 0
	}
	return len(s.batches[s.execs[p.cur-1].batch].members)
}

// enqueue admits a request into a pod's class FIFO.
func (s *sim) enqueue(pi, id int) {
	r := &s.reqs[id]
	p := &s.pods[pi]
	r.state = stQueued
	r.pod = pi
	p.queues[r.class].push(id)
	s.noteEnqueued(p, r.class)
	p.backlogS += s.pt.groupOf(pi).base[r.class]
	if p.queued > p.maxDepth {
		p.maxDepth = p.queued
	}
}

// dequeue settles the accounting for a still-queued request that just
// left the queue logically (deadline expiry). The queue entry itself
// stays behind and is discarded lazily when it reaches the head — the
// caller flips the request out of stQueued, which is what marks the
// entry dead.
func (s *sim) dequeue(id int) {
	r := &s.reqs[id]
	p := &s.pods[r.pod]
	s.noteDequeued(p, r.class)
	p.backlogS -= s.pt.groupOf(r.pod).base[r.class]
	if p.queued == 0 {
		p.backlogS = 0 // kill float accumulation drift at the fixpoint
	}
}

// queueHead returns the request at the head of the pod's class FIFO,
// discarding lazily-deleted entries on the way. The caller guarantees
// p.nq[class] > 0, so a live head exists.
func (s *sim) queueHead(p *podState, class int) int {
	q := &p.queues[class]
	for {
		id := q.peek()
		if s.reqs[id].state == stQueued {
			return id
		}
		q.pop()
	}
}

// admit routes a request through admission control and dispatch: the
// SLO class's fleet-wide queue limit is the front door, the fault
// layer's per-pod queue limit the back door.
func (s *sim) admit(id int, now float64) (pi int, ok bool) {
	r := &s.reqs[id]
	if s.classQueued != nil {
		if si := s.mixSLO[r.class]; si >= 0 {
			if lim := s.cfg.Classes[si].QueueLimit; lim > 0 && s.classQueued[si] >= lim {
				r.state = stShed
				s.shed++
				s.pending--
				return 0, false
			}
		}
	}
	pi = s.dispatch(id, now)
	if s.fc != nil && s.fc.QueueLimit > 0 && s.pods[pi].queued >= s.fc.QueueLimit {
		r.state = stShed
		s.shed++
		s.pending--
		return pi, false
	}
	s.enqueue(pi, id)
	return pi, true
}

// maybeLaunch starts the next batch on an idle pod, or arms a batching
// deadline when holding the batch open is still allowed.
func (s *sim) maybeLaunch(pi int, now float64) {
	p := &s.pods[pi]
	if p.busy || p.queued == 0 || !p.up {
		return
	}
	g := s.pt.groupOf(pi)
	// A class is launchable when its batch is full or its head request's
	// delay budget is spent. Among launchable classes, strict SLO
	// priority wins first; within a priority, serve the class whose head
	// has waited longest (FIFO across classes; ties break on the lower
	// class index) — a full batch in one class must never sit behind
	// another class's still-unexpired head. The expiry test compares
	// against the deadline instant itself (not the age): the deadline
	// event fires at exactly oldest+MaxDelayS, and re-deriving the same
	// float expression makes the ≥ test exact.
	class := -1
	bestPrio := 0
	var bestHead, oldestHead float64
	oldestAll := -1
	for c := range p.queues {
		if p.nq[c] == 0 {
			continue
		}
		head := s.reqs[s.queueHead(p, c)].arrival
		if oldestAll == -1 || head < oldestHead {
			oldestAll, oldestHead = c, head
		}
		launchable := p.nq[c] >= s.cfg.MaxBatch ||
			s.cfg.MaxDelayS <= 0 || now >= head+s.cfg.MaxDelayS
		if !launchable {
			continue
		}
		prio := s.classPrio[c]
		if class == -1 || prio > bestPrio || (prio == bestPrio && head < bestHead) {
			class, bestPrio, bestHead = c, prio, head
		}
	}
	if class == -1 {
		// Nothing launchable yet: hold for more arrivals, waking at the
		// earliest delay deadline (the overall-oldest head's).
		if want := oldestHead + s.cfg.MaxDelayS; want < p.deadline {
			p.deadline = want
			s.push(event{at: want, kind: evDeadline, pod: pi})
		}
		return
	}

	want := p.nq[class]
	if want > s.cfg.MaxBatch {
		want = s.cfg.MaxBatch
	}
	// Members are cut from the shared arena. When it has no room for a
	// full batch a fresh chunk starts; earlier batches keep theirs.
	if cap(s.memberBuf)-len(s.memberBuf) < want {
		s.memberBuf = make([]int, 0, max(want, len(s.reqs)/8))
	}
	lo := len(s.memberBuf)
	q := &p.queues[class]
	for len(s.memberBuf)-lo < want {
		id := q.pop()
		r := &s.reqs[id]
		if r.state != stQueued {
			continue // lazily-deleted entry (timed out while queued)
		}
		s.memberBuf = append(s.memberBuf, id)
		r.state = stInFlight
		s.noteDequeued(p, class)
		p.backlogS -= g.base[class]
	}
	if p.queued == 0 {
		p.backlogS = 0 // kill float accumulation drift at the fixpoint
	}
	p.deadline = math.Inf(1)
	hi := len(s.memberBuf)
	members := s.memberBuf[lo:hi:hi]
	b := len(members)

	bi := len(s.batches)
	s.batches = append(s.batches, batchState{class: class, members: members})
	s.startExec(bi, pi, now, false)

	if s.fc != nil && s.fc.Hedge {
		delay := s.fc.HedgeDelayS
		if delay <= 0 {
			delay = faults.HedgeAutoFactor * g.svc[class][b-1]
		}
		s.push(event{at: now + delay, kind: evHedge, aux: bi})
	}
}

// startExec launches one physical execution of a batch on a pod:
// service priced from the pod's group table (a hedge landing on a
// different group runs at that group's speed), inflated by an open
// straggler window, transient-error drawn at launch.
func (s *sim) startExec(bi, pi int, now float64, hedge bool) {
	b := &s.batches[bi]
	svc := s.pt.groupOf(pi).svc[b.class][len(b.members)-1]
	p := &s.pods[pi]
	if p.slow > 1 {
		svc *= p.slow
	}
	ei := len(s.execs)
	fails := false
	if s.fc != nil {
		fails = s.inj.LaunchFails()
	}
	s.execs = append(s.execs, exec{batch: bi, pod: pi, start: now, svc: svc, fails: fails, hedge: hedge})
	b.addLive(ei)
	p.busy = true
	p.cur = ei + 1
	p.busyUntil = now + svc
	p.batches++
	s.push(event{at: p.busyUntil, kind: evDone, pod: pi, aux: ei})
}

// deliver completes a batch: every member still pending finishes now;
// members that already timed out are delivered late (counted, but not
// completed).
func (s *sim) deliver(bi, pi int, now float64) {
	b := &s.batches[bi]
	s.pods[pi].served += len(b.members)
	for _, id := range b.members {
		r := &s.reqs[id]
		r.finish = now
		switch r.state {
		case stInFlight:
			r.state = stDone
			s.pending--
		case stTimedOut:
			r.state = stLate
			s.late++
		}
	}
}

// loseBatch handles a batch whose every exec is gone (crash or batch
// error) without a delivery: members re-enter dispatch after backoff,
// or fail once their retry budget is spent.
func (s *sim) loseBatch(bi int, now float64) {
	b := &s.batches[bi]
	for _, id := range b.members {
		r := &s.reqs[id]
		if r.state != stInFlight {
			continue // already timed out
		}
		if r.retries < s.fc.MaxRetries {
			r.retries++
			s.retries++
			r.state = stRetryWait
			s.push(event{at: now + s.inj.RetryBackoff(r.retries), kind: evRetry, req: id})
		} else {
			r.state = stFailed
			s.failed++
			s.pending--
		}
	}
}

// finishExec retires a completed exec: a clean finish wins the batch
// (first-wins — the other exec, if any, is cancelled and its pod freed
// immediately); a transient error that leaves no exec alive loses it.
func (s *sim) finishExec(ei int, now float64) {
	ex := &s.execs[ei]
	p := &s.pods[ex.pod]
	p.busy = false
	p.cur = 0
	p.busyS += ex.svc
	b := &s.batches[ex.batch]
	b.removeLive(ei)
	if ex.fails {
		s.batchErrors++
		if !b.won && b.nlive == 0 {
			s.loseBatch(ex.batch, now)
		}
	} else if !b.won {
		b.won = true
		if ex.hedge {
			s.hedgesWon++
		}
		s.deliver(ex.batch, ex.pod, now)
		for _, oi := range b.live[:b.nlive] {
			o := &s.execs[oi]
			op := &s.pods[o.pod]
			if op.cur == oi+1 { // still running it: cancel, free the pod
				op.busy = false
				op.cur = 0
				op.busyS += now - o.start
				s.maybeLaunch(o.pod, now)
			}
		}
		b.nlive = 0
	}
	s.maybeLaunch(ex.pod, now)
}

// crashPod loses the pod's running exec (if any) and schedules
// detection and recovery. Dispatch keeps routing to the pod until the
// heartbeat timeout fires — those are the bounded doomed dispatches.
func (s *sim) crashPod(pi int, now float64) {
	p := &s.pods[pi]
	p.up = false
	p.gen++
	p.downSince = now
	s.crashes++
	if p.busy {
		ei := p.cur - 1
		ex := &s.execs[ei]
		p.busy = false
		p.cur = 0
		p.busyS += now - ex.start
		b := &s.batches[ex.batch]
		b.removeLive(ei)
		if !b.won && b.nlive == 0 {
			s.loseBatch(ex.batch, now)
		}
	}
	p.deadline = math.Inf(1)
	s.push(event{at: now + s.fc.HeartbeatS, kind: evSuspect, pod: pi, aux: p.gen})
	s.push(event{at: now + s.inj.RecoverDelay(pi), kind: evRecover, pod: pi})
}

// suspectPod is the heartbeat timeout: if the pod is still down, mark
// it for dispatch avoidance and re-route everything queued on it.
func (s *sim) suspectPod(pi, gen int, now float64) {
	p := &s.pods[pi]
	if p.up || p.gen != gen {
		return // recovered before detection: stale timeout
	}
	p.suspected = true
	g := s.pt.groupOf(pi)
	for c := range p.queues {
		q := &p.queues[c]
		// Snapshot and reset before re-admitting: the all-suspected
		// fallback can legitimately re-queue a request onto this pod.
		ids := append([]int(nil), q.buf[q.head:]...)
		q.reset()
		for _, id := range ids {
			if s.reqs[id].state != stQueued {
				continue // lazily-deleted entry: accounting already settled
			}
			s.noteDequeued(p, c)
			p.backlogS -= g.base[c]
			if target, ok := s.admit(id, now); ok {
				s.maybeLaunch(target, now)
			}
		}
	}
	if p.queued == 0 {
		p.backlogS = 0 // all-suspected fallback can re-queue onto this pod
	}
}

// arrive admits request id at its arrival time and arms its deadline.
func (s *sim) arrive(id int) {
	at := s.reqs[id].arrival
	pi, ok := s.admit(id, at)
	if !ok {
		return
	}
	if d := s.reqs[id].deadline; !math.IsInf(d, 1) {
		s.push(event{at: d, kind: evTimeout, req: id})
	}
	s.maybeLaunch(pi, at)
}

// run merges the arrival cursor with the event heap until both are
// drained; an arrival goes first on a time tie (its implicit seq is
// lower, see newSim). Fault-free, every offered request is served to
// completion, so overload manifests as makespan, not loss; under
// faults, requests resolve as completed, shed, timed out, or failed,
// and the self-perpetuating fault timelines stop rescheduling once no
// request remains pending (so the heap still drains).
func (s *sim) run() {
	for {
		if s.next < len(s.reqs) && (len(s.h) == 0 || s.reqs[s.next].arrival <= s.h[0].at) {
			s.next++
			s.arrive(s.next - 1)
			continue
		}
		if len(s.h) == 0 {
			return
		}
		e := s.h.pop()
		switch e.kind {
		case evDeadline:
			s.pods[e.pod].deadline = math.Inf(1)
			s.maybeLaunch(e.pod, e.at)
		case evDone:
			if s.pods[e.pod].cur != e.aux+1 {
				break // stale: the exec was cancelled or lost to a crash
			}
			s.finishExec(e.aux, e.at)
		case evCrash:
			if s.pending == 0 {
				break // run resolved: let the fault timeline die out
			}
			s.crashPod(e.pod, e.at)
		case evRecover:
			p := &s.pods[e.pod]
			p.up = true
			p.suspected = false
			p.downtimeS += e.at - p.downSince
			if s.pending > 0 {
				if d, ok := s.inj.NextCrashDelay(e.pod); ok {
					s.push(event{at: e.at + d, kind: evCrash, pod: e.pod})
				}
			}
			s.maybeLaunch(e.pod, e.at)
		case evSuspect:
			s.suspectPod(e.pod, e.aux, e.at)
		case evSlowOn:
			if s.pending == 0 {
				break
			}
			p := &s.pods[e.pod]
			p.slow = s.fc.StragglerFactor
			s.push(event{at: e.at + s.inj.StragglerDuration(e.pod), kind: evSlowOff, pod: e.pod})
		case evSlowOff:
			p := &s.pods[e.pod]
			p.slow = 1
			if s.pending > 0 {
				if d, ok := s.inj.NextStragglerDelay(e.pod); ok {
					s.push(event{at: e.at + d, kind: evSlowOn, pod: e.pod})
				}
			}
		case evTimeout:
			r := &s.reqs[e.req]
			switch r.state {
			case stQueued:
				s.dequeue(e.req)
				r.state = stTimedOut
				s.timedOut++
				s.pending--
			case stInFlight, stRetryWait:
				r.state = stTimedOut
				s.timedOut++
				s.pending--
			}
		case evRetry:
			r := &s.reqs[e.req]
			if r.state != stRetryWait {
				break // timed out while backing off
			}
			if pi, ok := s.admit(e.req, e.at); ok {
				s.maybeLaunch(pi, e.at)
			}
		case evHedge:
			b := &s.batches[e.aux]
			if b.won || b.hedged || b.nlive == 0 {
				break // already done, already hedged, or lost (retry path owns it)
			}
			primary := s.execs[b.live[0]].pod
			hp := -1
			for i := range s.pods {
				p := &s.pods[i]
				if i != primary && p.up && !p.suspected && !p.busy {
					hp = i
					break
				}
			}
			if hp == -1 {
				break // no spare capacity: hedge forfeited
			}
			b.hedged = true
			s.hedges++
			s.startExec(e.aux, hp, e.at, true)
		}
	}
}

// latencyStats summarises a sorted latency slice with nearest-rank
// quantiles — the exact oracle the streaming P² path is tested
// against.
func latencyStats(sorted []float64) LatencyStats {
	n := len(sorted)
	if n == 0 {
		return LatencyStats{}
	}
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return LatencyStats{
		MeanS: sum / float64(n),
		P50S:  q(0.50),
		P95S:  q(0.95),
		P99S:  q(0.99),
		MaxS:  sorted[n-1],
	}
}

// result assembles the stable record after the run drains. Completed
// is derived by counting requests that actually finished within their
// deadline — never assumed from the arrival count. Latencies feed the
// accumulators in request-index order, so streaming estimates are as
// deterministic as the stored path.
func (s *sim) result(capacityRate float64) *Result {
	r := &Result{
		Config:       s.cfg,
		CapacityRate: capacityRate,
		OfferedRate:  s.cfg.Rate,
		Requests:     len(s.reqs),
	}

	// Size every stored accumulator exactly: count the delivered
	// requests per mix class first.
	delivered := make([]int, len(s.cfg.Mix))
	nDelivered, nDone := 0, 0
	for i := range s.reqs {
		switch s.reqs[i].state {
		case stDone:
			nDone++
			fallthrough
		case stLate:
			delivered[s.reqs[i].class]++
			nDelivered++
		}
	}
	streaming := s.cfg.Stats == StatsStreaming
	lats := newLatAccum(streaming, nDelivered)
	good := newLatAccum(streaming, nDone)
	perClass := make([]latAccum, len(s.cfg.Mix))
	for w := range perClass {
		perClass[w] = newLatAccum(streaming, delivered[w])
	}
	type classAgg struct {
		requests, completed, shed, timedOut, failed int
		lat                                         latAccum
	}
	var slo []classAgg
	if len(s.cfg.Classes) > 0 {
		sloDelivered := make([]int, len(s.cfg.Classes))
		for w, si := range s.mixSLO {
			if si >= 0 {
				sloDelivered[si] += delivered[w]
			}
		}
		slo = make([]classAgg, len(s.cfg.Classes))
		for i := range slo {
			slo[i].lat = newLatAccum(streaming, sloDelivered[i])
		}
	}

	for i := range s.reqs {
		req := &s.reqs[i]
		if req.finish > r.MakespanS {
			r.MakespanS = req.finish
		}
		var agg *classAgg
		if slo != nil {
			if si := s.mixSLO[req.class]; si >= 0 {
				agg = &slo[si]
				agg.requests++
				switch req.state {
				case stShed:
					agg.shed++
				case stTimedOut, stLate:
					agg.timedOut++ // late deliveries did time out
				case stFailed:
					agg.failed++
				}
			}
		}
		if req.state != stDone && req.state != stLate {
			continue // never delivered: no latency sample
		}
		l := req.finish - req.arrival
		lats.add(l)
		perClass[req.class].add(l)
		if agg != nil {
			agg.lat.add(l)
		}
		if req.state == stDone {
			r.Completed++
			good.add(l)
			if agg != nil {
				agg.completed++
			}
		}
	}
	r.Latency = lats.stats()
	if r.MakespanS > 0 {
		r.AchievedRate = float64(r.Completed) / r.MakespanS
	}

	var batches int
	hetero := len(s.cfg.Fleet) > 0
	for i := range s.pods {
		p := &s.pods[i]
		util := 0.0
		if r.MakespanS > 0 {
			util = p.busyS / r.MakespanS
		}
		ps := PodStats{
			Pod: i, Served: p.served, Batches: p.batches,
			BusyS: p.busyS, Utilization: util, MaxQueueDepth: p.maxDepth,
		}
		if hetero {
			ps.Device = s.pt.groupOf(i).device
		}
		r.Pods = append(r.Pods, ps)
		batches += p.batches
		if p.maxDepth > r.MaxQueueDepth {
			r.MaxQueueDepth = p.maxDepth
		}
	}
	if batches > 0 {
		r.MeanBatch = float64(r.Completed+s.late) / float64(batches)
	}

	for w, e := range s.cfg.Mix {
		r.Workloads = append(r.Workloads, WorkloadStats{
			Workload: e.Workload,
			Requests: perClass[w].count(),
			Latency:  perClass[w].stats(),
		})
	}

	for i := range slo {
		c := s.cfg.Classes[i]
		goodput := 0.0
		if r.MakespanS > 0 {
			goodput = float64(slo[i].completed) / r.MakespanS
		}
		r.Classes = append(r.Classes, ClassStats{
			Class: c.Name, Priority: c.Priority,
			Requests: slo[i].requests, Completed: slo[i].completed,
			Shed: slo[i].shed, TimedOut: slo[i].timedOut, Failed: slo[i].failed,
			Goodput: goodput, Latency: slo[i].lat.stats(),
		})
	}

	if hetero {
		d := FleetDollarPerHour(s.cfg.Fleet)
		cost := &CostStats{DollarPerHour: d}
		if d > 0 && r.AchievedRate > 0 {
			cost.RPSPerDollarHour = r.AchievedRate / d
			cost.DollarPerMillion = d / (r.AchievedRate * 3600) * 1e6
		}
		r.Cost = cost
	}

	if s.fc != nil {
		av := &AvailabilityStats{
			Goodput:      r.AchievedRate,
			Shed:         s.shed,
			TimedOut:     s.timedOut,
			Failed:       s.failed,
			Late:         s.late,
			Retries:      s.retries,
			Hedges:       s.hedges,
			HedgesWon:    s.hedgesWon,
			Crashes:      s.crashes,
			BatchErrors:  s.batchErrors,
			PodDowntimeS: make([]float64, len(s.pods)),
			LatencyGood:  good.stats(),
		}
		for i := range s.pods {
			p := &s.pods[i]
			d := p.downtimeS
			if !p.up && r.MakespanS > p.downSince {
				d += r.MakespanS - p.downSince // still down at the end of the run
			}
			av.PodDowntimeS[i] = d
		}
		r.Availability = av
	}
	return r
}
