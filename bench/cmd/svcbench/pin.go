package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already restricted itself to one
// processor; its value names the processor.
const pinnedEnv = "SVCBENCH_PINNED"

// pinToOneCPU restricts this process, and with it every svcd it starts,
// to one processor, and executes itself again so that the Go runtime
// sizes itself for it.
//
// One connection's request and reply take turns: the generator and svcd
// never need two processors at once. On two, every request wakes a
// processor that went idle waiting for it, and in a virtual machine that
// wake-up is a trip through the host whose cost follows the host's other
// guests: on the reference host the same closed loop ran a quarter
// slower and three times noisier across two processors than on one. On
// one processor the pair never lets it go idle, and what is left to
// measure is the path through svcd.
//
// The highest-numbered processor allowed is chosen; the first usually
// serves the devices' interrupts. When the affinity cannot be set the
// run goes on unpinned, with a warning.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread() // the affinity set below is this thread's, and exec keeps it
	var mask [16]uint64    // room for 1024 processors, the kernel's cpu_set_t
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		fmt.Fprintln(os.Stderr, "svcbench: WARNING: running unpinned: sched_getaffinity:", errno)
		return
	}
	cpu := -1
	for i := range mask {
		for b := 0; b < 64; b++ {
			if mask[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		fmt.Fprintln(os.Stderr, "svcbench: WARNING: running unpinned: empty affinity mask")
		return
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); errno != 0 {
		fmt.Fprintln(os.Stderr, "svcbench: WARNING: running unpinned: sched_setaffinity:", errno)
		return
	}
	exe, err := os.Executable()
	if err == nil {
		os.Setenv(pinnedEnv, fmt.Sprint(cpu))
		err = syscall.Exec(exe, os.Args, os.Environ())
	}
	fmt.Fprintln(os.Stderr, "svcbench: WARNING: pinned, but could not execute again:", err)
}
