#!/usr/bin/env bash
# fma-check.sh: fail when the Go compiler fuses a float64 multiply-add in a
# trios/ function that scripts/fma-allowlist.txt does not name, or when an
# allowlist entry no longer has a fused instruction. It cross-compiles
# ./cmd/... for linux/arm64, ppc64le and riscv64, the targets whose Go
# compilers fuse x*y+z, into a temporary directory and reads the binaries
# with go tool objdump. It matches function names, not instruction counts,
# so a toolchain that fuses a site more or less often does not trip it.
#
# Usage: bash scripts/fma-check.sh   (or make fma-check)
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."
GO=${GO:-go}
allowlist=scripts/fma-allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for arch in arm64 ppc64le riscv64; do
	mkdir "$tmp/$arch"
	GOOS=linux GOARCH=$arch "$GO" build -o "$tmp/$arch/" ./cmd/...
	for bin in "$tmp/$arch"/*; do
		# A TEXT line opens each function; the fourth field of an
		# instruction line is its mnemonic (FMADDD, FMSUB, FNMSUBS, ...).
		"$GO" tool objdump -s '^trios/' "$bin" |
			awk '/^TEXT /{fn = $2; sub(/\(SB\)$/, "", fn)} $4 ~ /^FN?M(ADD|SUB)/ {print fn}'
	done
done | sort -u >"$tmp/fused"

sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allowlist" | sort -u >"$tmp/allowed"

status=0
while read -r fn; do
	echo "fma-check: $fn has a fused multiply-add and is not on $allowlist" >&2
	status=1
done < <(comm -23 "$tmp/fused" "$tmp/allowed")
while read -r fn; do
	echo "fma-check: $fn is on $allowlist but has no fused multiply-add on arm64, ppc64le or riscv64" >&2
	status=1
done < <(comm -13 "$tmp/fused" "$tmp/allowed")
if [ "$status" -eq 0 ]; then
	echo "fma-check: $(wc -l <"$tmp/fused") functions fuse, all on $allowlist"
fi
exit "$status"
