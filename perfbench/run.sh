#!/bin/sh
# run.sh builds the benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#	sh perfbench/run.sh --workload phase-720 --seed 1 --seconds 15 --trace 0
#
# --workload all runs every workload in turn, each in a process of its own
# so that each reports its own peak memory and gets its own time limit; it
# exits non-zero if any of them does.
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary, the table6 page files
# and the traced run's spans.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Build offline, with the toolchain at hand. The caches, the compiler's
# scratch space and the toolchain's per-user files all go inside the
# checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR" "$out/home"

if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "run.sh: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
if ! (cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -o "$out/perfbench" .) >&2; then
	echo "run.sh: building the benchmark failed" >&2
	exit 2
fi

all=no
for arg in "$@"; do
	case "$arg" in
	all | --workload=all | -workload=all) all=yes ;;
	esac
done
if [ "$all" = no ]; then
	exec "$out/perfbench" "$@"
fi

# runone W ARGS... runs the benchmark with the workload "all" in ARGS
# replaced by W.
runone() {
	w=$1
	shift
	for arg in "$@"; do
		shift
		case "$arg" in
		all) arg=$w ;;
		--workload=all | -workload=all) arg=--workload=$w ;;
		esac
		set -- "$@" "$arg"
	done
	"$out/perfbench" "$@"
}

code=0
for w in phase-720 small-flows table6-columnar; do
	echo "== $w" >&2
	runone "$w" "$@" || code=$?
done
exit $code
