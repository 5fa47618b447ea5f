#!/usr/bin/env bash
# Launch the extraction job on a Ray cluster via `ray job submit` — the
# north-rule launch path. On a real cluster set RAY_DASHBOARD_ADDRESS to
# the head node's dashboard address (http://<head>:8265). Without it the
# script runs the same entrypoint directly, which starts a local Ray
# session when none exists (pipelines/job.py).
#
# Usage: tools/submit_job.sh <input-pages-parquet> <output-dir> [--resume]
#
# The job is resumable at shard granularity: re-submitting with --resume
# after ANY failure (node loss, preemption, SIGKILL) skips every shard
# whose manifest committed and purges torn partials before re-reading.
set -euo pipefail

INPUT=${1:?input pages parquet dir}
OUTPUT=${2:?output dir}
shift 2

if command -v ray >/dev/null && [ -n "${RAY_DASHBOARD_ADDRESS:-}" ]; then
    # Real-cluster path: ship the repo as the job's working dir. The package
    # also self-registers by value (ensure_worker_importable) so workers
    # need no pre-installed wheel.
    exec ray job submit \
        --address "$RAY_DASHBOARD_ADDRESS" \
        --working-dir "$(cd "$(dirname "$0")/.." && pwd)" \
        -- python -m service1_text_extraction_ray.pipelines.job \
        --input "$INPUT" --output "$OUTPUT" "$@"
fi

# Sandbox / single-node path: same entrypoint, local session.
exec python -m service1_text_extraction_ray.pipelines.job \
    --input "$INPUT" --output "$OUTPUT" "$@"
