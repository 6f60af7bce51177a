package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The load generator must not take CPU from the daemon it measures, and on a
// small machine the kernel's choice of which of the two runs where decides a
// run's speed more than the code under test does. So the benchmark splits the
// CPUs once: the daemon gets the first ones, the load generator the last
// max(1, nproc/4) — on two cores, one each. With a single CPU there is
// nothing to split.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(from, to int) (m cpuMask) {
	for c := from; c < to && c < 1024; c++ {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit returns the daemon's and the load generator's CPU masks, and
// false when the machine has too few CPUs to split.
func cpuSplit() (daemon, loadgen cpuMask, ok bool) {
	n := runtime.NumCPU()
	if n < 2 {
		return daemon, loadgen, false
	}
	k := max(1, n/4)
	return maskOf(0, n-k), maskOf(n-k, n), true
}

// pinSelf moves every thread of this process onto the load generator's CPUs;
// threads the runtime starts later inherit the mask from the thread that
// creates them.
func pinSelf() {
	_, loadgen, ok := cpuSplit()
	if !ok {
		return
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			setAffinity(tid, &loadgen) // a thread that exited meanwhile is no loss
		}
	}
}

// startPinned runs start — which forks the daemon — on a thread that sits on
// the daemon's CPUs, so that the child and every thread it creates inherit
// that mask, and then returns the thread to the load generator's CPUs.
func startPinned(start func() error) error {
	daemon, loadgen, ok := cpuSplit()
	if !ok {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &daemon); err != nil {
		return start()
	}
	defer setAffinity(0, &loadgen)
	return start()
}

// The sandbox's virtual CPUs halt when they have nothing to run, and waking a
// halted one costs 50-100 µs that vary with what else the host is doing. A
// cache hit is answered in 50 µs, so a request that finds the daemon's CPU
// asleep measures the hypervisor, not the daemon: the same seed read a hit
// p50 anywhere between 0.20 and 0.32 ms, and with the CPUs kept awake 0.153
// to 0.167 ms. So the benchmark keeps every CPU awake for as long as it runs
// with one spinner process per CPU in the SCHED_IDLE class — user space's
// version of booting with idle=poll. An idle-class task runs only when its
// CPU has nothing else to do and is preempted the instant anything wakes
// there, so it takes no time from the daemon or the load generator.

const schedIdle = 5 // SCHED_IDLE of <linux/sched.h>

// spin is the spinner child (the hidden flag -spin-on <cpu>): it moves to the
// CPU, drops to the idle class, says so on stdout and never returns. If it
// cannot drop it exits instead: at normal priority it would take half the CPU.
func spin(cpu int) int {
	runtime.LockOSThread()
	m := maskOf(cpu, cpu+1)
	if err := setAffinity(0, &m); err != nil {
		return fatal(err)
	}
	var param struct{ priority int32 } // sched_param: 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fatal(errno)
	}
	os.Stdout.WriteString("spinning\n")
	for {
	}
}

var spinners []*exec.Cmd

// startSpinners starts one spinner per CPU and reports how many run. None is
// no error: the run is then as steady as the machine's idle wake-ups.
func startSpinners() int {
	self, err := os.Executable()
	if err != nil {
		return 0
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, "-spin-on", strconv.Itoa(cpu))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil || cmd.Start() != nil {
			continue
		}
		if line, _ := bufio.NewReader(out).ReadString('\n'); line != "spinning\n" {
			cmd.Process.Kill()
			cmd.Wait()
			continue
		}
		spinners = append(spinners, cmd)
	}
	return len(spinners)
}

// stopSpinners kills the spinners and waits until each has ended.
func stopSpinners() {
	for _, cmd := range spinners {
		cmd.Process.Kill()
		cmd.Wait()
	}
	spinners = nil
}
