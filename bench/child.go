package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"syscall"
	"time"
)

// buildServer compiles cmd/blogserved from the enclosing checkout into
// dir and reports how long that took (harness.build_binary_s; never
// part of setup_s).
func buildServer(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "blogserved")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/blogserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build blogserved: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// child is one running blogserved.
type child struct {
	cmd       *exec.Cmd
	addr      string
	pprofAddr string
	logPath   string
	logFile   *os.File
	exited    chan struct{}
	forget    func() // takes stop back off the exit path once it has run
}

// startServer spawns blogserved with the given extra flags on free
// ports, its temp files and log under tmp, and returns once /readyz
// answers 200.
func startServer(bin, tmp string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	pprofAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(tmp, "blogserved.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-pprof", pprofAddr}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	c := &child{cmd: cmd, addr: addr, pprofAddr: pprofAddr, logPath: logPath, logFile: logFile, exited: make(chan struct{})}
	c.forget = onExit(c.stop) // from its first moment: a signal during loading must not orphan it
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	if err := c.waitReady(2 * time.Minute); err != nil {
		c.stop()
		return nil, fmt.Errorf("%w\n--- blogserved log ---\n%s", err, c.logTail())
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return errors.New("blogserved exited before it became ready")
		default:
		}
		if status, _, err := c.fetch(c.addr, "/readyz"); err == nil && status == 200 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("blogserved not ready in time")
}

// stop ends the child and returns once it has.
func (c *child) stop() {
	c.forget()
	terminate(c.cmd.Process, c.exited)
	c.logFile.Close()
}

// terminate sends SIGTERM, waits for the process to clean up after
// itself, and kills it after a grace period; exited is closed by
// whoever waits on the process.
func terminate(p *os.Process, exited <-chan struct{}) {
	p.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		p.Kill()
		<-exited
	}
}

func (c *child) logTail() string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 4000 {
		b = b[len(b)-4000:]
	}
	return string(b)
}

// fetch is a one-off GET on a fresh connection, for the operational
// endpoints read outside measured segments.
func (c *child) fetch(addr, path string) (int, []byte, error) {
	cl := http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// heap reads the child's allocation totals from the MemStats trailer
// of /debug/pprof/heap?debug=1 on its -pprof listener.
func (c *child) heap() (heapCounters, error) { return c.heapTrailer("/debug/pprof/heap?debug=1") }

// liveHeapMiB is what the child's heap still holds after a collection:
// the same trailer with gc=1, which collects before it reports.
func (c *child) liveHeapMiB() (float64, error) {
	h, err := c.heapTrailer("/debug/pprof/heap?debug=1&gc=1")
	return float64(h.inUse) / (1 << 20), err
}

func (c *child) heapTrailer(path string) (heapCounters, error) {
	status, body, err := c.fetch(c.pprofAddr, path)
	if err != nil || status != 200 {
		return heapCounters{}, fmt.Errorf("pprof heap: status %d: %v", status, err)
	}
	var h heapCounters
	var numGC, recentPauseNs, recentPauses uint64
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		for _, f := range []struct {
			prefix string
			dst    *uint64
		}{{"# Mallocs = ", &h.mallocs}, {"# TotalAlloc = ", &h.bytes}, {"# HeapAlloc = ", &h.inUse}, {"# NumGC = ", &numGC}} {
			if rest, ok := strings.CutPrefix(line, f.prefix); ok {
				v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
				if err != nil {
					return h, fmt.Errorf("pprof heap: %q: %w", line, err)
				}
				*f.dst = v
				found++
			}
		}
		// PauseNs is the ring of the last 256 pauses; the trailer has no
		// running total, so the total is estimated as cycles x the mean
		// recent pause.
		if rest, ok := strings.CutPrefix(line, "# PauseNs = ["); ok {
			for _, f := range strings.Fields(strings.TrimSuffix(rest, "]")) {
				if v, err := strconv.ParseUint(f, 10, 64); err == nil && v > 0 {
					recentPauseNs += v
					recentPauses++
				}
			}
		}
	}
	if found != 4 {
		return h, errors.New("pprof heap: MemStats trailer incomplete")
	}
	if recentPauses > 0 {
		h.pauseNs = numGC * recentPauseNs / recentPauses
	}
	return h, nil
}

// debugStats is the part of /debug/stats the harness reads.
type debugStats struct {
	Generation int64 `json:"generation"`
	Engine     struct {
		Stages map[string]struct {
			Builds  int64 `json:"builds"`
			TotalNs int64 `json:"total_ns"`
		} `json:"stages"`
		IndexIO struct {
			RandomReads int64 `json:"random_reads"`
		} `json:"index_io"`
		IndexCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"index_cache"`
		IndexCompactions int64 `json:"index_compactions"`
		Planner          struct {
			Explored  int64 `json:"explored"`
			Exploited int64 `json:"exploited"`
		} `json:"planner"`
	} `json:"engine"`
	Server struct {
		Rejected int64 `json:"rejected"`
		Cache    struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
			Entries   int   `json:"entries"`
		} `json:"cache"`
	} `json:"server"`
}

func (c *child) stats() (debugStats, error) {
	var ds debugStats
	status, body, err := c.fetch(c.addr, "/debug/stats")
	if err != nil || status != 200 {
		return ds, fmt.Errorf("debug stats: status %d: %v", status, err)
	}
	return ds, json.Unmarshal(body, &ds)
}

// metricSum adds up every series of one family on /metrics (labels
// ignored), e.g. http_requests_shed_total across routes and reasons.
func (c *child) metricSum(family string) (float64, error) {
	status, body, err := c.fetch(c.addr, "/metrics")
	if err != nil || status != 200 {
		return 0, fmt.Errorf("metrics: status %d: %v", status, err)
	}
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// conn is one closed-loop caller's keep-alive connection: its goroutine
// writes a request and blocks for the reply before it writes the next.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (k *conn) close() { k.c.Close() }

// reply is what the harness checks of one response. body aliases the
// connection's buffer and is valid until the next request.
type reply struct {
	status int
	xcache string
	body   []byte
}

func (k *conn) get(path string) (reply, error) {
	k.req = append(k.req[:0], "GET "...)
	k.req = append(k.req, path...)
	k.req = append(k.req, " HTTP/1.1\r\nHost: "...)
	k.req = append(k.req, k.host...)
	k.req = append(k.req, "\r\n\r\n"...)
	return k.roundTrip(nil)
}

func (k *conn) post(path string, body []byte) (reply, error) {
	k.req = append(k.req[:0], "POST "...)
	k.req = append(k.req, path...)
	k.req = append(k.req, " HTTP/1.1\r\nHost: "...)
	k.req = append(k.req, k.host...)
	k.req = append(k.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	k.req = strconv.AppendInt(k.req, int64(len(body)), 10)
	k.req = append(k.req, "\r\n\r\n"...)
	return k.roundTrip(body)
}

// replyTimeout bounds one request: the slowest operation (a push with a
// compaction behind it) takes well under a second, so a reply that has
// not come by now never will, and the run fails instead of hanging.
const replyTimeout = time.Minute

func (k *conn) roundTrip(body []byte) (reply, error) {
	k.c.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := k.c.Write(k.req); err != nil {
		return reply{}, err
	}
	if body != nil {
		if _, err := k.c.Write(body); err != nil {
			return reply{}, err
		}
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return reply{}, err
	}
	k.body.Reset()
	_, err = k.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), body: k.body.Bytes()}, nil
}
