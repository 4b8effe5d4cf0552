package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference machine is a 2-vCPU VM on a shared host. How fast its cores
// run drifts with the neighbours' load, by a third from one run to the next
// even when the host steals no time from it, and the server's CPU time per
// request drifts with it. Every CPU time is therefore reported at the
// reference speed: scaled by how long two fixed kernels take during the run
// against how long they take on the reference machine in its fastest phase.
//
// One kernel sorts 20,000 fixed integers, which slows with the core's clock
// and a busy sibling hyperthread; the other copies 16 MB back and forth,
// which slows with the memory bandwidth the neighbours leave. The server's
// work needs both, and across runs the batch workload's CPU time per task
// tracked the sort kernel and the single-request workload's tracked the
// copy (see README.md, Measurements), so the speed factor is the geometric
// mean of the two. The kernels use no program code, so no change to the
// program can move them, allocate nothing, and run every calibrateEvery on
// a thread of their own, timed in that thread's CPU time so that waiting
// for a core does not count. The run's medians set the scale.

const (
	calibrateEvery = 200 * time.Millisecond
	// referenceSortMs and referenceCopyMs are the kernels' medians on the
	// reference machine in its fastest phase (2-vCPU VM, Go 1.24).
	referenceSortMs = 1.7
	referenceCopyMs = 4.9
)

var (
	sortInput = sync.OnceValue(func() []int {
		rng := rand.New(rand.NewSource(1))
		in := make([]int, 20000)
		for i := range in {
			in[i] = rng.Int()
		}
		return in
	})
	copyBuffers = sync.OnceValues(func() ([]byte, []byte) {
		return make([]byte, 16<<20), make([]byte, 16<<20)
	})
)

// calibrator times the kernels in the background from start until stop.
type calibrator struct {
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	// Kernel times in ms, owned by the calibrating goroutine until wg is done.
	sorts, copies []float64
}

func startCalibrator() *calibrator {
	c := &calibrator{done: make(chan struct{})}
	input := sortInput()
	src, dst := copyBuffers()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]int, len(input))
		tick := time.NewTicker(calibrateEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-tick.C:
			}
			copy(buf, input)
			t0 := threadCPU()
			slices.Sort(buf)
			t1 := threadCPU()
			copy(dst, src)
			copy(src, dst)
			t2 := threadCPU()
			c.sorts = append(c.sorts, ms(t1-t0))
			c.copies = append(c.copies, ms(t2-t1))
		}
	}()
	return c
}

// stop ends the calibration and returns the kernels' median times in ms and
// the speed factor: the geometric mean of reference time over the run's,
// below 1 on a slow run. A CPU time t is reported as t × speed. Calling
// stop again returns the same values.
func (c *calibrator) stop() (sortMs, copyMs, speed float64) {
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	if len(c.sorts) == 0 {
		return 0, 0, 1
	}
	_, sortMs, _ = quartiles(c.sorts)
	_, copyMs, _ = quartiles(c.copies)
	return sortMs, copyMs, math.Sqrt(referenceSortMs / sortMs * referenceCopyMs / copyMs)
}

// cpuTicks reads the machine's steal and total CPU time, in ticks, from the
// first line of /proc/stat. Steal is time the hypervisor ran something else
// while a vCPU wanted to run; a run with much of it is one in which the
// host was busy (see diag.steal_share).
func cpuTicks() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %v", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	// Cannot fail: the clock id is valid and ts is writable.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all threads of process pid have run, read from
// its process CPU-time clock: exact to the nanosecond, and only time the
// process ran, so waiting for a core or for the hypervisor does not count.
func processCPU(pid int) (time.Duration, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
	// posix-timers.h; Linux lets any process read another's.
	clock := uintptr(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %v", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}
