package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// origin is the run's time base; every sample and span is in nanoseconds
// from it.
var origin = time.Now()

func nowNS() int64 { return int64(time.Since(origin)) }

// spanHash identifies a request by path and body: the router forwards no
// request ID, so client, router and node spans are joined on this hash plus
// time containment.
func spanHash(path string, body []byte) uint64 {
	h := fnv.New64a()
	io.WriteString(h, path)
	h.Write(body)
	return h.Sum64()
}

// sample is one op as the generator saw it. In the open loop due is when
// the op was scheduled; in the closed loop it is when the client issued it.
type sample struct {
	op       int
	sess     int // pipeline session, -1 for execute ops
	adv      int // advance index within the session
	hash     uint64
	due      int64
	sent     int64
	done     int64
	status   int
	err      bool   // transport error
	shed     bool   // the generator dropped the arrival
	mismatch bool   // answered 2xx with the wrong output
	body     []byte // pipeline answers, checked in order after the run
}

func (s *sample) ok() bool { return !s.shed && !s.err && !s.mismatch && statusOK(s.status) }

// latencyMS is the op's time from due to answer; failed and shed ops count
// as slower than any answer.
func (s *sample) latencyMS() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return float64(s.done-s.due) / 1e6
}

// issuer sends op i and fills in the sample's answer fields.
type issuer interface {
	issue(ctx context.Context, i int, s *sample)
}

// client is the generator's HTTP side: one transport shared by every
// client, capped at nproc connections to the router.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and fills s.sent, s.done, s.status, s.err; it
// returns the answer body.
func (c *client) post(ctx context.Context, path, class string, body []byte, s *sample) []byte {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		s.err = true
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	if class != "" {
		req.Header.Set("X-QoS", class)
	}
	s.sent = nowNS()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err, s.done = true, nowNS()
		return nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = nowNS()
	s.status = resp.StatusCode
	if err != nil {
		s.err = true
		return nil
	}
	return out
}

// phase is the outcome of one load phase.
type phase struct {
	offered int // ops the generator issued or scheduled
	samples []*sample
	start   int64
	end     int64   // last answer
	late    []int64 // open loop: how late each arrival was dispatched
}

func (p *phase) counts() (ok, failed, shed int) {
	for _, s := range p.samples {
		switch {
		case s.shed:
			shed++
		case s.ok():
			ok++
		default:
			failed++
		}
	}
	return
}

// closedLoop runs clients clients, each issuing its next op only after the
// previous one answered, until dur has passed. Ops are numbered from first.
func closedLoop(ctx context.Context, is issuer, clients, first int, dur time.Duration) *phase {
	ph := &phase{start: nowNS()}
	stop := ph.start + int64(dur)
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nowNS() < stop && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := &sample{op: i, sess: -1, due: nowNS()}
				is.issue(ctx, i, s)
				mu.Lock()
				ph.samples = append(ph.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.end = nowNS()
	ph.offered = int(next.Load()) - first
	return ph
}

// dispatcher hands an open-loop arrival to the executor; it returns false
// when the arrival has to be shed.
type dispatcher interface {
	dispatch(ctx context.Context, i int, s *sample, record func(*sample)) bool
	wait()
}

// openLoop offers n arrivals on a Poisson schedule at rate per second and
// times each op from when it was due, so a stall charges the wait it
// imposes on every later arrival.
func openLoop(ctx context.Context, d dispatcher, rate float64, n int, seed int64, first int) *phase {
	rng := rand.New(rand.NewSource(seed))
	ph := &phase{start: nowNS()}
	var mu sync.Mutex
	record := func(s *sample) {
		mu.Lock()
		ph.samples = append(ph.samples, s)
		mu.Unlock()
	}
	due := float64(ph.start)
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due += rng.ExpFloat64() / rate * 1e9
		if wait := time.Duration(int64(due) - nowNS()); wait > 0 {
			time.Sleep(wait)
		}
		ph.offered++
		s := &sample{op: first + k, sess: -1, due: int64(due)}
		ph.late = append(ph.late, nowNS()-s.due)
		if !d.dispatch(ctx, first+k, s, record) {
			s.shed = true
			record(s)
		}
	}
	d.wait()
	ph.end = nowNS()
	return ph
}

// poolDispatcher runs each arrival on its own goroutine, at most limit at
// once; beyond that the generator sheds.
type poolDispatcher struct {
	is  issuer
	sem chan struct{}
	wg  sync.WaitGroup
}

func newPoolDispatcher(is issuer, limit int) *poolDispatcher {
	return &poolDispatcher{is: is, sem: make(chan struct{}, limit)}
}

func (d *poolDispatcher) dispatch(ctx context.Context, i int, s *sample, record func(*sample)) bool {
	select {
	case d.sem <- struct{}{}:
	default:
		return false
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		d.is.issue(ctx, i, s)
		record(s)
	}()
	return true
}

func (d *poolDispatcher) wait() { d.wg.Wait() }

// queueDispatcher keeps one FIFO per session, because a session accepts one
// advance at a time; each queue has one worker.
type queueDispatcher struct {
	is     issuer
	route  func(i int) int
	queues []chan queued
	wg     sync.WaitGroup
}

type queued struct {
	i      int
	s      *sample
	record func(*sample)
}

// sessionQueueDepth bounds each session's client-side queue; an arrival
// that finds it full is shed.
const sessionQueueDepth = 256

func newQueueDispatcher(ctx context.Context, is issuer, sessions int, route func(i int) int) *queueDispatcher {
	d := &queueDispatcher{is: is, route: route}
	for q := 0; q < sessions; q++ {
		ch := make(chan queued, sessionQueueDepth)
		d.queues = append(d.queues, ch)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for a := range ch {
				d.is.issue(ctx, a.i, a.s)
				a.record(a.s)
			}
		}()
	}
	return d
}

func (d *queueDispatcher) dispatch(ctx context.Context, i int, s *sample, record func(*sample)) bool {
	select {
	case d.queues[d.route(i)] <- queued{i: i, s: s, record: record}:
		return true
	default:
		return false
	}
}

func (d *queueDispatcher) wait() {
	for _, ch := range d.queues {
		close(ch)
	}
	d.wg.Wait()
}

// accounting checks the identity attempted = ok + failed + shed over the
// phases, where attempted is what the generator offered and the other three
// are counted from the samples it recorded, and returns the totals.
func accounting(phases ...*phase) (attempted, ok, failed, shed int, err error) {
	for _, p := range phases {
		o, f, s := p.counts()
		attempted += p.offered
		ok += o
		failed += f
		shed += s
	}
	if attempted != ok+failed+shed {
		return attempted, ok, failed, shed, fmt.Errorf("accounting: attempted %d != ok %d + failed %d + shed %d", attempted, ok, failed, shed)
	}
	return attempted, ok, failed, shed, nil
}
