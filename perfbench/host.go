package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo fingerprints the host and build a result was measured on, so
// absolute times are only compared between matching fingerprints.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
}

func fingerprint(root string, seed uint64) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
		Seed:       seed,
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit names the checkout's commit from its .git directory, or
// "unknown" when the checkout is not a git work tree.
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head := readTrimmed(filepath.Join(dir, "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if len(head) == 40 {
			return head // detached HEAD
		}
		return "unknown"
	}
	if id := readTrimmed(filepath.Join(dir, filepath.FromSlash(ref))); len(id) == 40 {
		return id
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref && len(id) == 40 {
			return id
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, sc.Err()
}

// userHZ is the clock-tick rate of /proc/<pid>/stat CPU times, fixed at
// 100 by the Linux ABI.
const userHZ = 100

// processCPUOf reads another process's CPU time, user and system, from
// /proc/<pid>/stat.
func processCPUOf(pid string) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces;
	// utime and stime are fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}
