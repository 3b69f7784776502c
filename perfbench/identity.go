package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// identity stamps a report with the host and the code that produced
// it, so a number is never compared across machines unknowingly.
type identity struct {
	CPUModel     string   `json:"cpu_model"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	GitSHA       string   `json:"git_sha"`
	SourceSHA256 string   `json:"source_sha256"`
	Serve        string   `json:"uwm_serve_version"`
	Gateway      string   `json:"uwm_gateway_version"`
	ServeFlags   []string `json:"uwm_serve_flags"`
	GatewayFlags []string `json:"uwm_gateway_flags"`
}

func hostIdentity(root, binDir string) identity {
	return identity{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitSHA:       gitSHA(root),
		SourceSHA256: sourceDigest(root),
		Serve:        firstLine(binDir, "uwm-serve", "-version"),
		Gateway:      firstLine(binDir, "uwm-gateway", "-version"),
		ServeFlags:   serveArgs("<addr-file>"),
		GatewayFlags: gatewayArgs("<addr-file>", "<backend>"),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA returns the checkout's commit, when root is itself the top of
// a git work tree (not merely inside some other repository).
func gitSHA(root string) string {
	const none = "unavailable (not a git checkout)"
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return none
	}
	top, sha, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	abs, err := filepath.Abs(root)
	if err != nil || filepath.Clean(top) != abs {
		return none
	}
	return sha
}

// sourceDigest hashes every Go source and module file of the checkout
// in path order: the code identity when there is no git metadata.
// Hidden directories (VCS data, build output) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func firstLine(binDir, name string, args ...string) string {
	out, err := exec.Command(filepath.Join(binDir, name), args...).Output()
	if err != nil {
		return "unavailable: " + err.Error()
	}
	line, _, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
	return line
}
