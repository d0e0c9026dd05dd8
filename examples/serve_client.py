"""Submit an analysis job to a running ``repro serve`` and await the verdict.

Usage (server first: ``python -m repro serve --port 8765``)::

    python examples/serve_client.py tob -n 3 -f 1 --max-states 600000
    python examples/serve_client.py delegation -n 2 -f 0 --tenant alice

The client is deliberately dependency-free (urllib only): submit via
``POST /jobs``, poll ``GET /jobs/{id}`` until terminal, print the
verdict.  ``--expect-cached`` turns it into an assertion that the server
answered from its verdict cache without running anything — CI's
serve-smoke job uses exactly that to prove the second submission of an
identical job is a cache hit.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

TERMINAL = ("completed", "exhausted", "failed", "cancelled")


def request(url, method="GET", body=None, headers=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("candidate", help="delegation | tob | last-writer")
    parser.add_argument("-n", type=int, default=3)
    parser.add_argument("-f", "--resilience", type=int, default=1)
    parser.add_argument("--max-states", type=int, default=None)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--reduction", default="none")
    parser.add_argument("--tenant", default=None)
    parser.add_argument("--url", default="http://127.0.0.1:8765")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help="fail unless the server answers immediately from its cache",
    )
    args = parser.parse_args(argv)

    spec = {
        "candidate": args.candidate,
        "n": args.n,
        "f": args.resilience,
        "reduction": args.reduction,
    }
    budget = {}
    if args.max_states is not None:
        budget["max_states"] = args.max_states
    if args.deadline is not None:
        budget["deadline_seconds"] = args.deadline
    if budget:
        spec["budget"] = budget
    headers = {} if args.tenant is None else {"X-Repro-Tenant": args.tenant}

    status, reply_headers, document = request(
        args.url + "/jobs", "POST", spec, headers
    )
    if status == 200 and document.get("cached"):
        print(f"cache hit (entry from {document['id']}):")
        print(json.dumps(document["verdict"], indent=2, sort_keys=True))
        return 0
    if args.expect_cached:
        print(f"expected a cache hit, got HTTP {status}: {document}", file=sys.stderr)
        return 1
    if status == 429:
        print(
            f"server overloaded ({document.get('detail')}); "
            f"retry after {reply_headers.get('Retry-After')}s",
            file=sys.stderr,
        )
        return 2
    if status != 202:
        print(f"submission failed with HTTP {status}: {document}", file=sys.stderr)
        return 1

    job_id = document["id"]
    print(f"job {job_id} {document['state']}")
    started = time.monotonic()
    while time.monotonic() - started < args.timeout:
        status, _, document = request(f"{args.url}/jobs/{job_id}")
        if status != 200:
            print(f"poll failed with HTTP {status}: {document}", file=sys.stderr)
            return 1
        if document["state"] in TERMINAL:
            break
        time.sleep(0.5)
    else:
        print(f"job {job_id} still {document['state']} after {args.timeout}s",
              file=sys.stderr)
        return 1

    state = document["state"]
    print(f"{state} in {document.get('wall_seconds') or 0:.1f}s")
    if state == "completed":
        print(json.dumps(document["verdict"], indent=2, sort_keys=True))
        return 0
    print(json.dumps(document.get("error"), indent=2, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main())
