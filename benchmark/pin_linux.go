package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that pinToOneCPU has already re-executed.
const pinnedEnv = "TOPK_BENCHMARK_PINNED"

// pinToOneCPU confines the benchmark, and through inheritance every topkd it
// launches, to the highest CPU the process may run on. A closed loop of one
// caller keeps one request in flight, so nothing but the server's background
// GC loses a core, and the measurement stops depending on a second vCPU of
// a shared host being there when it is woken: on the 2-vCPU build box the
// same inputs spread half as far from run to run pinned as free (p50 of
// mem_point 16% against 52% over eight alternating pairs, mem_deep 19%
// against 42%, cluster_mix 13% against 33%) and are no slower.
//
// Affinity is per thread and inherited on clone and across exec, so the
// calling thread is pinned and the program re-executed: the new image starts
// on one pinned thread and every later thread and child descends from it.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [1024 / 64]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := range int(n) * 8 {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [len(mask)]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}
