"""CLI entry points: ``repro-served`` (the daemon) and ``repro-client``.

Both are thin wrappers over :class:`~repro.service.daemon.MergeDaemon` and
:class:`~repro.service.client.ServiceClient`; the evaluation pipeline and
the CI smoke job drive the same objects in-process.  Examples::

    repro-served --port 7463
    repro-client --address 127.0.0.1:7463 health
    repro-client --address 127.0.0.1:7463 compile \\
                 --suite mibench --benchmark sha
    repro-client --address 127.0.0.1:7463 compile --source prog.c
    repro-client --address 127.0.0.1:7463 stats
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from .client import ServiceClient, ServiceError
from .daemon import DaemonConfig, MergeDaemon


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-served",
        description="Long-lived merge daemon: warm engine, resident "
                    "alignment cache, memoized responses.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7463,
                        help="TCP port (0 picks an ephemeral one)")
    parser.add_argument("--unix-socket", default=None, metavar="PATH",
                        help="serve on a unix socket instead of TCP")
    parser.add_argument("--queue-limit", type=int, default=8,
                        help="in-flight work requests before 429 rejections")
    parser.add_argument("--max-sessions", type=int, default=32)
    parser.add_argument("--session-ttl", type=float, default=300.0,
                        help="idle seconds before a session is evicted")
    parser.add_argument("--result-cache", type=int, default=64,
                        help="memoized compile responses for identical "
                             "(module, options) requests (0 disables)")
    parser.add_argument("--max-payload", type=int, default=4 << 20,
                        help="request body size limit in bytes")
    parser.add_argument("--target", default="x86-64")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="per-request socket timeout in seconds; a "
                             "client that stalls past it loses the "
                             "connection and is counted in /stats "
                             "(0 disables)")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive internal failures that open the "
                             "circuit breaker (503 + Retry-After while "
                             "open; 0 disables)")
    parser.add_argument("--breaker-reset", type=float, default=5.0,
                        help="seconds the breaker stays open before a "
                             "half-open probe is admitted")
    parser.add_argument("--sanitize", action="store_true", default=None,
                        help="run the static-analysis sanitizer (verifier "
                             "v2 + merge linter) on every request; "
                             "violations are recorded in the stats "
                             "counters (default: REPRO_SANITIZE)")
    args = parser.parse_args(argv)

    config = DaemonConfig(
        host=args.host, port=args.port, unix_socket=args.unix_socket,
        queue_limit=args.queue_limit, max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        result_cache_size=args.result_cache,
        max_payload_bytes=args.max_payload, target=args.target,
        request_timeout=args.request_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        sanitize=args.sanitize)
    daemon = MergeDaemon(config)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    print(f"repro-served: listening on {daemon.address} "
          f"(queue_limit={config.queue_limit})",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
        print("repro-served: shut down", flush=True)
    return 0


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def client_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-client",
        description="Talk to a running merge daemon.")
    parser.add_argument("--address", default="127.0.0.1:7463",
                        help="host:port, or a unix-socket path")
    parser.add_argument("--timeout", type=float, default=60.0)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("health")
    commands.add_parser("stats")

    compile_cmd = commands.add_parser(
        "compile", help="compile one module through the daemon")
    source = compile_cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--source", metavar="FILE",
                        help="mini-C source file ('-' for stdin)")
    source.add_argument("--suite", choices=("mibench", "spec2006"))
    compile_cmd.add_argument("--benchmark", default=None,
                             help="workload benchmark name (with --suite)")
    compile_cmd.add_argument("--scale", type=float, default=None)
    compile_cmd.add_argument("--cap", type=int, default=None)
    compile_cmd.add_argument("--seed", type=int, default=None)
    compile_cmd.add_argument("--technique", default="fmsa",
                             choices=("baseline", "identical", "soa", "fmsa"))
    compile_cmd.add_argument("--threshold", type=int, default=1)
    compile_cmd.add_argument("--oracle", action="store_true")

    args = parser.parse_args(argv)
    client = ServiceClient(args.address, timeout=args.timeout)
    try:
        if args.command == "health":
            _emit(client.health())
        elif args.command == "stats":
            _emit(client.stats())
        elif args.command == "compile":
            if args.source is not None:
                text = (sys.stdin.read() if args.source == "-"
                        else open(args.source).read())
                module = {"kind": "source", "text": text}
            else:
                if not args.benchmark:
                    parser.error("--suite needs --benchmark")
                module = {"kind": "workload", "suite": args.suite,
                          "benchmark": args.benchmark}
                for key in ("scale", "cap", "seed"):
                    value = getattr(args, key)
                    if value is not None:
                        module[key] = value
            options = {"technique": args.technique,
                       "threshold": args.threshold, "oracle": args.oracle}
            _emit(client.compile_module(module, options))
    except ServiceError as error:
        print(f"repro-client: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as error:
        print(f"repro-client: cannot reach {args.address}: {error}",
              file=sys.stderr)
        return 3
    finally:
        client.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
