package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpu/internal/machine"
	"mpu/internal/router"
	"mpu/internal/serve"
)

// The deployment the benchmark hosts in its own process: cmd/mpurouter's
// defaults (hedging on, 2 candidates, 2 retries) in front of two nodes with
// cmd/mpud's defaults (2 ms batch window, preemption on), on loopback HTTP.
// Every node carries a pool for each (back end, mode) the workloads use,
// each with the two machines of mpud's default pool.
const clusterNodes = 2

// nodePortBase fixes the nodes' loopback ports. The router places keys by
// hashing node addresses, so random ports would deal a different split of
// the work between the nodes to every run.
const nodePortBase = 47301

var nodePools = []serve.PoolSpec{
	{Backend: "racer", Mode: machine.ModeMPU, Size: 2},
	{Backend: "mimdram", Mode: machine.ModeMPU, Size: 2},
	{Backend: "dcache", Mode: machine.ModeMPU, Size: 2},
	{Backend: "simdram", Mode: machine.ModeMPU, Size: 2},
	{Backend: "racer", Mode: machine.ModeBaseline, Size: 2},
}

type cluster struct {
	nodes     []*serve.Server
	rt        *router.Router
	https     []*http.Server
	routerURL string
	nodeURLs  []string
	tr        *tracer // nil unless the run is traced
}

// startCluster builds the nodes and the router. With a tracer, every
// handler is wrapped in its timing middleware.
func startCluster(tr *tracer) (*cluster, error) {
	c := &cluster{tr: tr}
	for i := 0; i < clusterNodes; i++ {
		srv, err := serve.New(serve.Config{
			Pools:       nodePools,
			BatchWindow: 2 * time.Millisecond,
			NodeID:      fmt.Sprintf("node%d", i),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, srv)
		url, err := c.host(fmt.Sprintf("node%d", i), fmt.Sprintf("127.0.0.1:%d", nodePortBase+i), srv)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodeURLs = append(c.nodeURLs, url)
	}
	rt, err := router.New(router.Config{Nodes: c.nodeURLs, Candidates: 2, Retries: 2, Hedge: true})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	if c.routerURL, err = c.host("router", "127.0.0.1:0", rt); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// host serves h on addr, or on any loopback port when addr is taken, and
// returns its base URL.
func (c *cluster) host(layer, addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v; using a free port, which moves the router's key placement\n", layer, err)
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return "", err
		}
	}
	if c.tr != nil {
		h = c.tr.wrap(layer, h)
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	c.https = append(c.https, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// waitReady polls the router until it reports both nodes ready.
func (c *cluster) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.routerURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Status == "ok" {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router never reported both nodes ready: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// close shuts the HTTP servers down (router first), then the router and
// the nodes, and waits for their goroutines.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(c.https) - 1; i >= 0; i-- {
		c.https[i].Shutdown(ctx)
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

// scrape sums the named counters over the router's and every node's
// /metrics exposition.
func (c *cluster) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	out := map[string]float64{}
	for _, base := range append([]string{c.routerURL}, c.nodeURLs...) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(text), "\n") {
			for _, name := range names {
				if rest, ok := strings.CutPrefix(line, name); ok && (strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) {
					var v float64
					if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
						out[name] += v
					}
				}
			}
		}
	}
	return out, nil
}

// span is one handler invocation seen by the timing middleware.
type span struct {
	Layer  string `json:"layer"` // "router" or the node name
	Path   string `json:"path"`
	Hash   uint64 `json:"hash"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status"`
}

// tracer is the benchmark's own timing middleware around the router's and
// each node's http.Handler. Spans stay in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := nowNS()
		h.ServeHTTP(sw, r)
		sp := span{Layer: layer, Path: r.URL.Path, Hash: spanHash(r.URL.Path, body), Start: start, End: nowNS(), Status: sw.status}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	})
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
