package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// parseStatCPU returns utime+stime in milliseconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTicksPerSecond, nil
}

// parseKeyed returns the first integer following "key" at the start of a
// line, as /proc/<pid>/status ("VmHWM:  1234 kB"), /proc/<pid>/io
// ("rchar: 1234") and the MemStats footer of a debug=1 heap profile
// ("# Mallocs = 1234") all write their values.
func parseKeyed(text, key string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20) // the footer's PauseNs line is long
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key)
		if !ok {
			continue
		}
		f := strings.Fields(strings.TrimLeft(rest, " \t:="))
		if len(f) == 0 {
			continue
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %q line", key)
}

// memStats is the part of runtime.MemStats the benchmark tracks.
type memStats struct{ mallocs, totalAlloc uint64 }

// parseMemStatsFooter reads Mallocs and TotalAlloc from the
// "# runtime.MemStats" footer of /debug/pprof/heap?debug=1.
func parseMemStatsFooter(profile string) (memStats, error) {
	i := strings.LastIndex(profile, "# runtime.MemStats")
	if i < 0 {
		return memStats{}, fmt.Errorf("heap profile has no runtime.MemStats footer")
	}
	var m memStats
	var err error
	if m.mallocs, err = parseKeyed(profile[i:], "# Mallocs"); err != nil {
		return m, err
	}
	m.totalAlloc, err = parseKeyed(profile[i:], "# TotalAlloc")
	return m, err
}

// parseProm reads a Prometheus text exposition into series → value, keyed
// by the series exactly as exposed (name plus label set).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := io.Copy(&b, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b.String(), nil
}

// snapshot is every outside-in counter of a deployment at one instant.
type snapshot struct {
	cpuMS      []float64 // per node, in deployment order
	rchar      uint64    // Σ over nodes
	syscr      uint64
	mem        memStats           // front node
	prom       map[string]float64 // front node
	peakRSSKiB uint64             // Σ VmHWM over nodes
}

func readProc(pid int, file string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	return string(b), err
}

// scrape reads a snapshot. The heap profile is fetched before /metrics so
// the Mallocs delta between two snapshots includes one of each.
func scrape(ctx context.Context, d *deployment) (snapshot, error) {
	var s snapshot
	for _, n := range d.nodes {
		stat, err := readProc(n.pid(), "stat")
		if err != nil {
			return s, err
		}
		cpu, err := parseStatCPU(stat)
		if err != nil {
			return s, err
		}
		s.cpuMS = append(s.cpuMS, cpu)
		ioText, err := readProc(n.pid(), "io")
		if err != nil {
			return s, err
		}
		for key, dst := range map[string]*uint64{"rchar": &s.rchar, "syscr": &s.syscr} {
			v, err := parseKeyed(ioText, key)
			if err != nil {
				return s, fmt.Errorf("/proc/%d/io: %w", n.pid(), err)
			}
			*dst += v
		}
		status, err := readProc(n.pid(), "status")
		if err != nil {
			return s, err
		}
		hwm, err := parseKeyed(status, "VmHWM")
		if err != nil {
			return s, fmt.Errorf("/proc/%d/status: %w", n.pid(), err)
		}
		s.peakRSSKiB += hwm
	}
	heap, err := httpGet(ctx, d.front.url+"/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	if s.mem, err = parseMemStatsFooter(heap); err != nil {
		return s, err
	}
	prom, err := httpGet(ctx, d.front.url+"/metrics")
	if err != nil {
		return s, err
	}
	s.prom = parseProm(prom)
	return s, nil
}
