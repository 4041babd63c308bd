package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/stat"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The service leg of attack-recovery's traced run: it times the layers
// campaigns bypass — JSON decode, trace.Decode, source.Replay,
// runner.Pool, NDJSON streaming and report rendering — by sending
// recorded-trace replays and live specs to an in-process mission service
// on a loopback listener. It runs after the measured window, so it moves
// no end-to-end metric.

// legClasses are the mission kinds the leg sends: quad and rover,
// attack-free and GPS-attacked.
var legClasses = []struct{ rv, attack string }{
	{"ArduCopter", ""},
	{"ArduRover", ""},
	{"ArduCopter", "GPS"},
	{"ArduRover", "GPS"},
}

const (
	legSpecsPerClass = 2
	// legMaxSec is above every completing straight-path mission of the
	// mix (at most about 35 s).
	legMaxSec = 40
)

// legSpecs draws the leg's mission specs from the seed.
func legSpecs(seed int64) []service.MissionSpec {
	rng := rand.New(rand.NewSource(seed))
	var specs []service.MissionSpec
	for _, c := range legClasses {
		for k := 0; k < legSpecsPerClass; k++ {
			s := service.MissionSpec{
				RV:     c.rv,
				Path:   "S",
				Attack: c.attack,
				Wind:   float64(rng.Intn(4)) * 0.5,
				Seed:   rng.Int63n(1 << 40),
				MaxSec: legMaxSec,
			}
			if c.attack != "" {
				s.AttackStart, s.AttackDur = 5, 10
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// recording is one spec recorded as a trace, exactly as
// `delorean -record` does.
type recording struct {
	trace []byte // encoded trace
	body  []byte // the trace_b64 request body
	tel   *telemetry.Mission
}

// record runs every spec once through the default engine with the trace
// recorder tee.
func record(specs []service.MissionSpec) ([]recording, error) {
	jobs := make([]engine.Job, len(specs))
	recs := make([]*source.Recorder, len(specs))
	for i, s := range specs {
		m, err := s.Build()
		if err != nil {
			return nil, err
		}
		recs[i] = m.Record()
		jobs[i] = engine.Job{Label: fmt.Sprintf("record %d", i), Cfg: m.Cfg}
	}
	res, err := engine.Runner().Run(context.Background(), jobs, engine.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]recording, len(specs))
	for i, s := range specs {
		var buf bytes.Buffer
		if err := recs[i].Trace(s.HeaderMeta()).Encode(&buf); err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.MissionRequest{TraceB64: base64.StdEncoding.EncodeToString(buf.Bytes())})
		if err != nil {
			return nil, err
		}
		out[i] = recording{trace: buf.Bytes(), body: body, tel: res[i].Telemetry}
	}
	return out, nil
}

// server is one running mission service with one loopback listener per
// handler wrapper.
type server struct {
	svc   *service.Server
	https []*http.Server
	urls  []string
	done  sync.WaitGroup
}

func startServer(handlers ...func(http.Handler) http.Handler) (*server, error) {
	s := &server{svc: service.New(service.Config{Shards: runtime.NumCPU(), QueueDepth: 64})}
	for _, wrap := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, err
		}
		hs := &http.Server{Handler: wrap(s.svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
		s.https = append(s.https, hs)
		s.urls = append(s.urls, "http://"+ln.Addr().String()+"/v1/missions")
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			_ = hs.Serve(ln)
		}()
	}
	return s, nil
}

// stop shuts the listeners and the mission pool down and waits for the
// serving goroutines to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range s.https {
		_ = hs.Shutdown(ctx)
	}
	s.done.Wait()
	_ = s.svc.Drain(ctx)
	s.svc.Close()
}

// response is one finished request.
type response struct {
	latency time.Duration
	status  int
	digest  [32]byte
	err     error
}

// send posts one body and reads its stream to the end.
func send(cl *http.Client, url string, body []byte) response {
	var r response
	t0 := time.Now()
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	r.digest = sha256.Sum256(b)
	if r.status == http.StatusOK {
		r.err = checkStream(b)
	}
	return r
}

// checkStream checks the NDJSON framing of a one-mission stream: the
// accepted record, one mission record, then the run report.
func checkStream(b []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) != 3 {
		return fmt.Errorf("stream has %d lines, want 3", len(lines))
	}
	var mission struct{ Type string }
	if err := json.Unmarshal(lines[1], &mission); err != nil || mission.Type != "mission" {
		return fmt.Errorf("second line is not a mission record: %s", lines[1])
	}
	var rep telemetry.Report
	if err := json.Unmarshal(lines[2], &rep); err != nil || rep.Version == 0 {
		return errors.New("last line is not a run report")
	}
	return nil
}

// serviceLeg sends every leg spec live and as a replay of its recording,
// each through the plain and the decorated handler, and checks that all
// four responses are byte-identical.
func serviceLeg(out *outcome, seed int64) error {
	specs := legSpecs(seed)
	recs, err := record(specs)
	if err != nil {
		return err
	}
	tr := newTracer()
	srv, err := startServer(
		func(h http.Handler) http.Handler { return h },
		func(h http.Handler) http.Handler { return &tracedHandler{inner: h, t: tr} },
	)
	if err != nil {
		return err
	}
	defer srv.stop()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	cl := &http.Client{Transport: transport}

	var traced []float64
	var sent, refused int
	for i, s := range specs {
		live, err := json.Marshal(s)
		if err != nil {
			return err
		}
		var first [32]byte
		for k, body := range [][]byte{live, recs[i].body} {
			for via, url := range srv.urls {
				r := send(cl, url, body)
				sent++
				out.attempted++
				switch {
				case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
					refused++
					out.failed++
					continue
				case r.err != nil || r.status != http.StatusOK:
					out.failed++
					out.notes["service_error"] = fmt.Sprintf("status %d: %v", r.status, r.err)
					continue
				}
				if k == 0 && via == 0 {
					first = r.digest
				}
				out.check("service_bytes_equal", r.digest == first)
				if via == 1 {
					traced = append(traced, ms(r.latency))
				}
			}
		}
	}

	var decode, report []float64
	for i, s := range specs {
		t0 := time.Now()
		if _, err := trace.Decode(bytes.NewReader(recs[i].trace)); err != nil {
			return err
		}
		decode = append(decode, ms(time.Since(t0)))
		t1 := time.Now()
		rep, err := service.MissionReport(s, recs[i].tel)
		if err != nil {
			return err
		}
		if err := rep.WriteNDJSON(io.Discard); err != nil {
			return err
		}
		report = append(report, ms(time.Since(t1)))
	}

	tr.mu.Lock()
	handler := tr.handler
	tr.mu.Unlock()
	if handler.n > 0 {
		out.layer["service.handler_ms"] = ms(handler.total) / float64(handler.n)
		out.layer["service.client_ms"] = stat.Mean(traced) - out.layer["service.handler_ms"]
	}
	out.layer["service.requests"] = float64(sent)
	out.layer["service.refused"] = float64(refused)
	out.layer["trace.decode_ms"] = stat.Median(decode)
	out.layer["telemetry.report_ms"] = stat.Median(report)
	return nil
}
