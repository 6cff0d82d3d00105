package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obshttp"
)

// listener serves an obshttp handler on a loopback port, the way
// xkwserve does, so every measured query crosses a real TCP connection.
type listener struct {
	srv  *http.Server
	base string
	done chan error
}

// serve starts the operational plane over ix with xkwserve's default
// admission limits and trace store.
func serve(ix obshttp.Server, traces interface{ SetTraceStore(*obs.TraceStore) }) (*listener, error) {
	traces.SetTraceStore(obs.NewTraceStore(obs.DefaultKeepTraces, obs.DefaultSampleTraces, 50*time.Millisecond, 1))
	h := obshttp.NewHandler(ix, obshttp.Options{MaxInflight: 256, QueueLen: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// request is one /search call of a workload's sequence; id indexes the
// workload's distinct queries (and their oracle expectations).
type request struct {
	id     int
	query  string
	k      int
	sem    string
	engine string // "" = the handler's default (join; the star join for k > 0)
}

func (r request) url(base string) string {
	v := url.Values{"q": {r.query}, "k": {strconv.Itoa(r.k)}}
	if r.sem != "" {
		v.Set("sem", r.sem)
	}
	if r.engine != "" {
		v.Set("engine", r.engine)
	}
	return base + "/search?" + v.Encode()
}

// checker verifies /search responses against the oracle's expectations.
// A response whose results array is byte-identical to one it already
// verified for the same request is correct without its results being
// decoded into answers and compared again.
type checker struct {
	exp  []expectation
	mu   sync.Mutex
	seen []map[uint64]bool
}

func newChecker(exp []expectation) *checker {
	seen := make([]map[uint64]bool, len(exp))
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	return &checker{exp: exp, seen: seen}
}

// check reports whether body is a correct answer to distinct request id,
// and the engine that served it.
func (c *checker) check(id int, body []byte) (engine string, ok bool) {
	var reply struct {
		Engine  string          `json:"engine"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return "", false
	}
	f := fnv.New64a()
	f.Write(reply.Results)
	h := f.Sum64()
	c.mu.Lock()
	ok = c.seen[id][h]
	c.mu.Unlock()
	if ok {
		return reply.Engine, true
	}
	var results []answer
	if err := json.Unmarshal(reply.Results, &results); err != nil || !c.exp[id].matches(results) {
		return reply.Engine, false
	}
	c.mu.Lock()
	c.seen[id][h] = true
	c.mu.Unlock()
	return reply.Engine, true
}

type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// search runs one request and returns its latency (send to last byte)
// and the body.
func (c *client) search(r request) (time.Duration, []byte, error) {
	t0 := time.Now()
	resp, err := c.hc.Get(r.url(c.base))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, body, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return lat, body, nil
}

// loadStats accumulates one closed-loop phase.
type loadStats struct {
	latMs     []float64
	attempted int
	failed    int // transport errors, non-200 statuses (incl. sheds)
	wrong     int // answers that do not match the oracle
	respBytes int64
	elapsed   time.Duration
	engines   map[string]int
	firstErr  error
}

func (s *loadStats) bad() int { return s.failed + s.wrong }

// closedLoop sends seq in whole passes from `clients` concurrent callers,
// each sending its next request only after the previous reply. It keeps
// running passes until at least minDur has elapsed, the latency sample
// holds minSamples, and more() (when set) agrees; a pass is never cut
// short, so every run covers the same request mix. Passes stop at maxDur
// regardless.
func closedLoop(c *client, seq []request, clients int, chk *checker, minDur, maxDur time.Duration, minSamples int, more func() bool) *loadStats {
	st := &loadStats{engines: map[string]int{}}
	var mu sync.Mutex
	start := time.Now()
	for {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seq) {
						return
					}
					r := seq[i]
					lat, body, err := c.search(r)
					var engine string
					ok := false
					if err == nil {
						engine, ok = chk.check(r.id, body)
					}
					mu.Lock()
					st.attempted++
					st.respBytes += int64(len(body))
					switch {
					case err != nil:
						st.failed++
						if st.firstErr == nil {
							st.firstErr = fmt.Errorf("%q: %w", r.query, err)
						}
					case !ok:
						st.wrong++
						if st.firstErr == nil {
							st.firstErr = fmt.Errorf("%q k=%d sem=%s: answer differs from the oracle", r.query, r.k, r.sem)
						}
					default:
						st.latMs = append(st.latMs, ms(lat))
						st.engines[engine]++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		st.elapsed = time.Since(start)
		if st.elapsed >= maxDur {
			break
		}
		if st.elapsed >= minDur && len(st.latMs) >= minSamples && (more == nil || !more()) {
			break
		}
	}
	return st
}

func (s *loadStats) qps() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(len(s.latMs)) / s.elapsed.Seconds()
}
