//go:build !linux

package main

// pinToOneCPU does nothing where there is no sched_setaffinity; the
// benchmark reads /proc and so measures only on Linux anyway.
func pinToOneCPU() error { return nil }
