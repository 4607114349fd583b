#!/usr/bin/env bash
# Static guard against the NaN-unsafe comparator/fold idioms this repo
# has repeatedly had to sweep (PRs 3-4, 8, 10):
#
#   * `.partial_cmp(..)...unwrap()` on floats - panics outright on NaN;
#   * `fold(0.0, f64::max)` (and the f64::MIN/MAX seeded variants) -
#     silently drops NaN operands, laundering poisoned data into 0.0.
#
# Scope: crates/*/src and examples/. Test code (tests/ directories) is
# out of scope; #[cfg(test)] modules are NOT excluded - in-src test modules
# must use the safe idioms too, so the guard stays a dumb line grep. Comment lines are ignored so
# documentation may name the banned idioms. Known-good exceptions live in
# ci/nan-guard-allowlist.txt as `path:line-content` substring patterns.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/nan-guard-allowlist.txt
fail=0

# One pattern per banned idiom. Keep in sync with the header comment.
patterns=(
  '\.partial_cmp\(.*\)\s*\.unwrap\(\)'
  'partial_cmp\(.*\)\)\.unwrap\(\)'
  'fold\(\s*0\.0(f64|f32)?\s*,\s*f64::(max|min)\s*\)'
  'fold\(\s*f64::(MIN|MAX|NEG_INFINITY|INFINITY)\s*,\s*f64::(max|min)\s*\)'
)

hits_file=$(mktemp)
trap 'rm -f "$hits_file"' EXIT

for pat in "${patterns[@]}"; do
  # -I: skip binaries; comment-only lines (optionally indented //) are
  # stripped before matching so docs may mention the idioms.
  grep -rInE "$pat" crates/*/src examples --include='*.rs' 2>/dev/null |
    grep -vE '^[^:]+:[0-9]+:\s*//' >> "$hits_file" || true
done

if [[ -s $hits_file ]]; then
  while IFS= read -r hit; do
    allowed=0
    if [[ -f $allowlist ]]; then
      while IFS= read -r entry; do
        [[ -z $entry || $entry == \#* ]] && continue
        if [[ $hit == *"$entry"* ]]; then
          allowed=1
          break
        fi
      done < "$allowlist"
    fi
    if [[ $allowed -eq 0 ]]; then
      echo "NaN-unsafe idiom: $hit" >&2
      fail=1
    fi
  done < "$hits_file"
fi

if [[ $fail -ne 0 ]]; then
  cat >&2 <<'EOF'

Use f64::total_cmp for sorts/min_by/max_by (demote NaN keys to
f64::NEG_INFINITY first where NaN must LOSE a max), and
edgescope_analysis::stats::{peak_max, peak_min} for peak folds.
Genuine exceptions go in ci/nan-guard-allowlist.txt (substring of the
offending `path:line:content` grep hit), with a comment saying why.
EOF
  exit 1
fi
echo "nan-guard: clean"
