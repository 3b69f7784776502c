package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stack is one fresh uwm-serve → uwm-gateway pair on loopback, both at
// default flags apart from their listen addresses. In a traced run a
// relay owned by the benchmark sits between the two and times each
// backend exchange.
type stack struct {
	serve, gateway *proc
	serveAddr      string
	gatewayURL     string
	relay          *relay
}

// serveArgs and gatewayArgs are the only flags the benchmark passes;
// everything else stays at the shipped defaults.
func serveArgs(addrFile string) []string {
	return []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
}

func gatewayArgs(addrFile, backend string) []string {
	return []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-backends", backend}
}

// startStack launches the pair and returns once the gateway listens.
// dir receives the address files and the processes' logs.
func startStack(ctx context.Context, binDir, dir string, traced bool) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{}
	serveAddrFile := filepath.Join(dir, "serve.addr")
	var err error
	s.serve, err = launch(binDir, "uwm-serve", serveArgs(serveAddrFile), dir)
	if err != nil {
		return nil, err
	}
	if s.serveAddr, err = waitAddr(ctx, serveAddrFile, s.serve); err != nil {
		s.stop()
		return nil, fmt.Errorf("uwm-serve: %w", err)
	}
	backend := s.serveAddr
	if traced {
		if s.relay, err = startRelay(s.serveAddr); err != nil {
			s.stop()
			return nil, err
		}
		backend = s.relay.addr
	}
	gwAddrFile := filepath.Join(dir, "gateway.addr")
	if s.gateway, err = launch(binDir, "uwm-gateway", gatewayArgs(gwAddrFile, backend), dir); err != nil {
		s.stop()
		return nil, err
	}
	gwAddr, err := waitAddr(ctx, gwAddrFile, s.gateway)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("uwm-gateway: %w", err)
	}
	s.gatewayURL = "http://" + gwAddr
	return s, nil
}

// proc is a launched child process; done closes once it has exited
// and err holds its exit status.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func launch(binDir, name string, args []string, dir string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	// The child holds its own descriptor; ours is not needed after start.
	defer logf.Close()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark killed before it could stop its stack takes the
	// stack down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitAddr polls for the address file a process writes once it
// listens.
func waitAddr(ctx context.Context, path string, p *proc) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-p.done:
			return "", fmt.Errorf("exited before listening: %v", p.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return "", errors.New("no listen address within 30s")
}

// peakRSSMB returns the summed peak resident set (VmHWM) of the
// server and gateway processes, in MiB.
func (s *stack) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range []*proc{s.serve, s.gateway} {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// stop drains the gateway, then the server (SIGTERM, the operators'
// path), and waits for both; a process still alive after 20 s is
// killed.
func (s *stack) stop() error {
	var errs []error
	for _, p := range []*proc{s.gateway, s.serve} {
		if p == nil {
			continue
		}
		if err := p.terminate(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.relay != nil {
		s.relay.close()
	}
	return errors.Join(errs...)
}

func (p *proc) terminate() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process reports its status below
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%s: %w", p.name, p.err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s: killed after 20s without draining", p.name)
	}
}

// scrape fetches a Prometheus text exposition (a /metrics page).
func scrape(client *http.Client, url string) (promText, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return promText(body), nil
}

type promText []byte

// sum adds up every sample of the named metric whose label set
// contains all of want (given as `k="v"` fragments).
func (p promText) sum(name string, want ...string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(p))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		labels := ""
		if strings.HasPrefix(rest, "{") {
			end := strings.IndexByte(rest, '}')
			if end < 0 {
				continue
			}
			labels, rest = rest[1:end], rest[end+1:]
		} else if !strings.HasPrefix(rest, " ") {
			continue // a longer metric name sharing the prefix
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
			}
		}
		fields := strings.Fields(rest)
		if !ok || len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			total += v
		}
	}
	return total
}

// relay is the traced run's timing proxy between gateway and server.
// It forwards every request unchanged and, for job submissions,
// records when the backend exchange began and ended and how many
// bytes the server answered, keyed by X-Request-Id.
type relay struct {
	addr   string
	target string
	client *http.Client
	srv    *http.Server
	served chan error

	mu    sync.Mutex
	spans map[string]backendSpan
}

type backendSpan struct {
	start, end time.Time
	bytes      int
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{
		addr:   ln.Addr().String(),
		target: "http://" + target,
		// Enough idle connections for both clients' jobs plus the
		// gateway's health probes, so the relay never reconnects.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		spans:  map[string]backendSpan{},
		served: make(chan error, 1),
	}
	r.srv = &http.Server{Handler: r}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

func (r *relay) ServeHTTP(w http.ResponseWriter, in *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(in.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := http.NewRequestWithContext(in.Context(), in.Method, r.target+in.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = in.Header.Clone()
	resp, err := r.client.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(rb) // a failed write surfaces at the gateway as a transport error
	end := time.Now()
	if in.Method == http.MethodPost && in.URL.Path == "/v1/jobs" {
		r.mu.Lock()
		r.spans[in.Header.Get("X-Request-Id")] = backendSpan{start: start, end: end, bytes: len(rb)}
		r.mu.Unlock()
	}
}

func (r *relay) span(requestID string) (backendSpan, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[requestID]
	return s, ok
}

func (r *relay) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		r.srv.Close()
	}
	<-r.served
	r.client.CloseIdleConnections()
}
