package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gnbody/internal/serve"
	"gnbody/internal/trace"
)

// server is the overlap service in this process, behind a loopback
// listener, driven through its HTTP API.
type server struct {
	pool   *serve.Server
	http   *http.Server
	url    string
	served chan error // http.Server.Serve's return
	client *http.Client
}

// startServer builds the service with one world of 2 ranks and returns
// once it gives its first ready response.
func startServer(backend string) (*server, error) {
	pool, err := serve.New(serve.Config{PoolConfig: serve.PoolConfig{Backend: backend, Ranks: ranks, Worlds: 1}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Drain()
		return nil, err
	}
	s := &server{
		pool:   pool,
		http:   &http.Server{Handler: pool.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * ranks}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener and its connections, waits for Serve to
// return, then drains the pool and its worlds.
func (s *server) close() {
	s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.pool.Drain()
}

// jobResult is one served job as a client saw it.
type jobResult struct {
	latency time.Duration // POST until the last hit is read
	refused bool          // 429 or 503 at admission
	err     error         // failed, or hits differ from the batch reference

	// Traced runs only: the job's status and per-rank metrics.
	runMS      float64
	retries    int
	alignShare float64
}

// submit posts one read set as FASTA with the given align mode, blocks on
// its hits, and checks them byte for byte against want.
func (s *server) submit(in *readInput, mode string, want []byte, traced bool) jobResult {
	q := fmt.Sprintf("/v1/jobs?k=%d&x=%d&minscore=%d&coverage=%g&error=%g&mode=%s",
		kmerLen, xdrop, minScore, in.spec.coverage, in.spec.errRate, mode)
	start := time.Now()
	resp, err := s.client.Post(s.url+q, "text/x-fasta", bytes.NewReader(in.fasta))
	if err != nil {
		return jobResult{err: err}
	}
	var st serve.Status
	err = decodeJSON(resp, &st)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return jobResult{refused: true, err: fmt.Errorf("refused: %s", resp.Status)}
	case resp.StatusCode != http.StatusAccepted:
		return jobResult{err: fmt.Errorf("submit: %s", resp.Status)}
	case err != nil:
		return jobResult{err: err}
	}
	resp, err = s.client.Get(s.url + "/v1/jobs/" + st.ID + "/hits?wait=1")
	if err != nil {
		return jobResult{err: err}
	}
	hits, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := jobResult{latency: time.Since(start), err: err}
	switch {
	case err != nil:
		return res
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("job %s: %s: %s", st.ID, resp.Status, bytes.TrimSpace(hits))
		return res
	case !bytes.Equal(hits, want):
		res.err = fmt.Errorf("job %s: %d bytes of hits differ from the batch pipeline's %d", st.ID, len(hits), len(want))
		return res
	}
	if traced {
		res.err = s.jobDetail(st.ID, &res)
	}
	return res
}

// jobDetail reads a finished job's status and per-rank metrics.
func (s *server) jobDetail(id string, res *jobResult) error {
	var st serve.Status
	if err := s.getJSON("/v1/jobs/"+id, &st); err != nil {
		return err
	}
	res.runMS, res.retries = float64(st.ElapsedMS), st.Retries
	var m struct{ Jobs []trace.JobRow }
	if err := s.getJSON("/v1/jobs/"+id+"/metrics", &m); err != nil {
		return err
	}
	var alignSec, total float64
	for _, r := range m.Jobs {
		alignSec += r.AlignSec
		total += r.AlignSec + r.OverheadSec + r.CommSec + r.SyncSec
	}
	res.alignShare = ratio(alignSec, total)
	return nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	if err := decodeJSON(resp, v); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", resp.Request.URL.Path, err)
	}
	return nil
}

// serveLayer reports the service layer from the jobs a traced run served:
// run time on the world (status elapsed_ms), the client's latency beyond
// it (queueing and HTTP), refusals, retries and the kernel's share of the
// job's rank time.
func serveLayer(results []jobResult, v map[string]float64) {
	var run, over, share []float64
	var refused, retries float64
	for _, r := range results {
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		run = append(run, r.runMS)
		over = append(over, float64(r.latency.Microseconds())/1e3-r.runMS)
		share = append(share, r.alignShare)
		retries += float64(r.retries)
	}
	v["serve.run_p50_ms"] = percentile(run, 0.5)
	v["serve.run_p90_ms"] = percentile(run, 0.9)
	v["serve.overhead_p50_ms"] = percentile(over, 0.5)
	v["serve.overhead_p90_ms"] = percentile(over, 0.9)
	v["serve.refused"] = refused
	v["serve.retries"] = retries
	v["serve.job_align_share"] = median(share)
}

// errorsOf collects the distinct failures of served jobs for the report.
func errorsOf(results []jobResult) error {
	var errs []error
	for _, r := range results {
		if r.err != nil && len(errs) < 5 {
			errs = append(errs, r.err)
		}
	}
	return errors.Join(errs...)
}
