package report

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Env is the host and command a report's numbers belong to: a number
// without its host and command is not a number.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	// ScratchFS is the filesystem type under the scratch directory that
	// holds sim-durable's WAL: fsync cost is a property of it.
	ScratchFS string `json:"scratch_fs"`
	Command   string `json:"command"`
	Seed      int64  `json:"seed"`
	Reps      int    `json:"reps"`
}

// String renders the env block as the header line of a printed report.
func (e Env) String() string {
	return fmt.Sprintf("env: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s dirty=%v scratch_fs=%s seed=%d reps=%d\ncommand: %s",
		e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit, e.Dirty, e.ScratchFS, e.Seed, e.Reps, e.Command)
}

// CollectEnv fills the env block. scratch is the directory sim-durable
// journals under. Commit is "unknown" outside a git checkout (the driver's
// checkout is not a repository).
func CollectEnv(scratch string, seed int64, reps int) Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		ScratchFS:  fsType(scratch),
		Command:    strings.Join(os.Args, " "),
		Seed:       seed,
		Reps:       reps,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //nolint:errcheck
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// fsMagic names the filesystem types a scratch directory is likely to sit
// on; anything else prints as its hex magic.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x794c7630: "overlayfs",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}
