package main

import (
	"errors"
	"runtime"
	"syscall"
	"unsafe"
)

// The generator shares the machine's cores with the servers it drives.
// While a server keeps every core busy, a waking generator thread waits
// out the running thread's time slice (milliseconds) and sends late.
// Since Linux 6.12 an unprivileged thread may ask the EEVDF scheduler
// for a shorter slice with sched_setattr, which lets it preempt on
// wake-up. On other kernels the request fails or has no effect, and the
// lateness is reported, not corrected.

// generatorSliceNs is the slice the open-loop scheduling thread asks for.
const generatorSliceNs = 100_000

// schedAttr is the kernel's struct sched_attr (SCHED_ATTR_SIZE_VER1).
type schedAttr struct {
	size, policy      uint32
	flags             uint64
	nice              int32
	priority          uint32
	runtime, deadline uint64
	period            uint64
	utilMin, utilMax  uint32
}

// sysSchedSetattr is the sched_setattr system call number; the syscall
// package does not name it on amd64.
var sysSchedSetattr = map[string]uintptr{"amd64": 314, "arm64": 274, "riscv64": 274, "loong64": 274}

// setSlice sets the calling thread's time slice under SCHED_OTHER; 0
// restores the default. The caller must hold runtime.LockOSThread.
func setSlice(ns uint64) error {
	nr, ok := sysSchedSetattr[runtime.GOARCH]
	if !ok {
		return errors.New("sched_setattr: no system call number for " + runtime.GOARCH)
	}
	a := schedAttr{size: uint32(unsafe.Sizeof(schedAttr{})), runtime: ns}
	if _, _, errno := syscall.Syscall(nr, 0, uintptr(unsafe.Pointer(&a)), 0); errno != 0 {
		return errno
	}
	return nil
}
