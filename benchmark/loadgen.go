package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// op is one scheduled control-plane request.
type op struct {
	// route is status, metrics, traces, journal or inject.
	route  string
	tenant string
	// reqID is an inject's idempotency key.
	reqID string
	// dupOf is, for an inject re-sending an earlier request_id, the index
	// of the op that first sent it; -1 otherwise.
	dupOf int
}

// outcome is what the generator observed for one op.
type outcome struct {
	op op
	// at is the op's due instant, from the start of the window.
	at time.Duration
	// latency runs from the op's due instant to the end of its response,
	// minus the generator's own timer lag when the connection was idle at
	// the due instant (see stream.run).
	latency time.Duration
	ok      bool
	applied int64
}

// stream drives one keep-alive connection open loop: op i is due at
// start + i*period, however long earlier ops took. A stalled server
// therefore delays later ops, and their latency, measured from the due
// instant, includes that wait.
type stream struct {
	name   string
	base   string
	client *http.Client
	period time.Duration
	// next returns op i given the outcomes so far (an inject re-send
	// needs the earlier op's ack).
	next func(i int, done []outcome) op
	// journalSince returns the since_frame of a journal tail read.
	journalSince func() int64
	tr           *tracer
	parent       int64

	outcomes []outcome
	// lags are the timer lags of ops due while the connection was idle.
	lags []time.Duration
	// busy is the time the connection spent with a request outstanding.
	busy time.Duration
	// mismatches records inject re-sends acked with another frame than
	// the first send.
	mismatches []string
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// readSchedule cycles the four read routes over uniformly drawn tenants.
func readSchedule(rng *rand.Rand, ids []string) func(int, []outcome) op {
	routes := [...]string{"status", "metrics", "traces", "journal"}
	return func(i int, _ []outcome) op {
		return op{route: routes[i%len(routes)], tenant: ids[rng.Intn(len(ids))], dupOf: -1}
	}
}

// injectSchedule re-asserts alt2=ok on uniformly drawn tenants, each with a
// fresh request_id; about one op in ten instead re-sends the request_id of
// an earlier acked op, which the host must answer with the original frame.
// Re-asserting a factor's current value leaves every tenant's simulation
// unchanged while the whole ack path runs.
func injectSchedule(rng *rand.Rand, ids []string, prefix string) func(int, []outcome) op {
	return func(i int, done []outcome) op {
		if len(done) > 0 && rng.Intn(10) == 0 {
			j := rng.Intn(len(done))
			for k := j; k >= 0; k-- {
				if d := done[k]; d.ok && d.op.dupOf < 0 {
					return op{route: "inject", tenant: d.op.tenant, reqID: d.op.reqID, dupOf: k}
				}
			}
		}
		return op{route: "inject", tenant: ids[rng.Intn(len(ids))], reqID: fmt.Sprintf("%s-%d", prefix, i), dupOf: -1}
	}
}

// run sends ops until stop closes, then returns after the op in flight.
func (s *stream) run(start time.Time, stop <-chan struct{}) {
	prevEnd := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * s.period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		o := s.next(i, s.outcomes)
		sent := time.Now()
		ok, applied := s.do(o)
		end := time.Now()
		latency := end.Sub(due)
		if !prevEnd.After(due) {
			// The connection was idle when the op fell due, so the gap
			// between due and sent is the generator's own timer lag, not
			// queueing behind an earlier op: leave it out.
			lag := sent.Sub(due)
			s.lags = append(s.lags, lag)
			latency -= lag
		}
		s.busy += end.Sub(sent)
		prevEnd = end
		key := o.reqID
		if key == "" {
			key = fmt.Sprintf("%s-%d", s.name, i)
		}
		s.tr.record("fleet.api."+o.route, key, s.parent, sent, end)
		if ok && o.dupOf >= 0 && applied != s.outcomes[o.dupOf].applied {
			s.mismatches = append(s.mismatches, fmt.Sprintf(
				"tenant %s: re-sent request_id %s acked at frame %d, first ack %d",
				o.tenant, o.reqID, applied, s.outcomes[o.dupOf].applied))
		}
		s.outcomes = append(s.outcomes, outcome{op: o, at: due.Sub(start), latency: latency, ok: ok, applied: applied})
	}
}

// do sends one op. Transport errors and any status but 200 are failures.
func (s *stream) do(o op) (ok bool, applied int64) {
	url := s.base + "/systems/" + o.tenant
	var (
		req *http.Request
		err error
	)
	switch o.route {
	case "inject":
		body := fmt.Sprintf(`{"kind":"env","factor":"alt2","value":"ok","request_id":%q}`, o.reqID)
		req, err = http.NewRequest(http.MethodPost, url+"/inject", strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case "status":
		req, err = http.NewRequest(http.MethodGet, url, nil)
	case "journal":
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/journal?since_frame=%d", url, s.journalSince()), nil)
	default:
		req, err = http.NewRequest(http.MethodGet, url+"/"+o.route, nil)
	}
	if err != nil {
		return false, 0
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, 0
	}
	if o.route == "inject" {
		var ack struct {
			AppliedFrame int64 `json:"applied_frame"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return false, 0
		}
		applied = ack.AppliedFrame
	}
	// Drain the rest so the connection is reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false, 0
	}
	return true, applied
}

// latencies returns the latency in ms of every op on route, or of every op
// when route is empty. A failed op counts as having waited the whole
// window, so it misses every latency percentile.
func (s *stream) latencies(window time.Duration, route string) []float64 {
	var out []float64
	for _, o := range s.outcomes {
		switch {
		case route != "" && o.op.route != route:
		case o.ok:
			out = append(out, ms(o.latency))
		default:
			out = append(out, ms(window))
		}
	}
	return out
}

// sliceQuantile cuts the window into slices of about sliceLen by due
// instant and returns the median over the slices of each slice's
// q-quantile latency, in ms.
func (s *stream) sliceQuantile(window, sliceLen time.Duration, q float64) float64 {
	k := max(1, int(math.Round(float64(window)/float64(sliceLen))))
	slices := make([][]float64, k)
	lat := s.latencies(window, "")
	for i, o := range s.outcomes {
		j := min(k-1, int(int64(o.at)*int64(k)/int64(window)))
		slices[j] = append(slices[j], lat[i])
	}
	var qs []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			qs = append(qs, quantile(sl, q))
		}
	}
	return median(qs)
}

func (s *stream) failed() int {
	n := 0
	for _, o := range s.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

func (s *stream) lagMS() []float64 {
	out := make([]float64, len(s.lags))
	for i, l := range s.lags {
		out[i] = ms(l)
	}
	return out
}
