"""``python -m repro check`` — the static analysis entry point.

Three modes, one finding model:

* **artifact mode** — certify a saved ``.npz`` schedule (``check path.npz
  --capacity S``), a store object (``--store ROOT --digest HEX``), every
  store object (``--store ROOT --all``), or a freshly recorded kernel
  (``--kernel tbs --n 40 --m 6 --s 15``).  With ``--p`` the kernel mode
  additionally partitions the dependence DAG and runs the cross-shard
  race detector plus the conservation checks.
* **lint mode** — ``check --lint src [more paths]`` runs the repo-invariant
  lint pass; any finding fails the run (the CI gate).
* ``--format json`` emits one machine-readable document instead of tables.

The ``check`` flags live in the CLI's command table (:mod:`repro.__main__`),
which shares the ``--kernel/--n/--m/--s`` and ``--report`` declarations
with the other commands.

Exit status: 0 when no error-severity finding was produced (lint mode is
stricter: any finding at all fails), 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import json
from typing import Any

from ..utils.fmt import Table, banner
from .certify import Certificate, certify_schedule
from .conservation import check_conservation
from .findings import Finding, has_errors, sort_findings
from .races import check_races


def _emit(mode: str, findings: list[Finding], stats: dict[str, Any],
          fmt: str, ok: bool) -> None:
    if fmt == "json":
        print(json.dumps({
            "mode": mode,
            "ok": ok,
            "findings": [f.as_dict() for f in findings],
            "stats": stats,
        }, indent=2))
        return
    if findings:
        t = Table(["code", "severity", "where", "message"])
        for f in findings:
            t.add_row([f.code, f.severity, f.where, f.message])
        print(t.render())
    summary = ", ".join(f"{k}={v}" for k, v in stats.items())
    verdict = "OK" if ok else "FAIL"
    print(f"{verdict}: {len(findings)} finding(s)" + (f" [{summary}]" if summary else ""))


def _cert_rows(label: str, cert: Certificate) -> dict[str, Any]:
    stats = dict(cert.stats)
    stats["target"] = label
    return stats


def cmd_check(args) -> int:
    fmt = args.format

    # ---- lint mode ----------------------------------------------------
    if args.lint is not None:
        from .lint import lint_paths

        findings = lint_paths(args.lint)
        _emit("lint", findings, {"paths": len(args.lint)}, fmt,
              ok=not findings)
        return 1 if findings else 0

    findings: list[Finding] = []
    stats: dict[str, Any] = {}

    # ---- store mode ---------------------------------------------------
    if args.store is not None:
        from ..serve.store import ScheduleStore

        store = ScheduleStore(args.store)
        by_digest = {key.digest(): key for key in store.keys()}
        if args.digest:
            targets = [args.digest]
        elif args.all:
            targets = sorted(by_digest)
        else:
            print("check --store needs --digest or --all")
            return 2
        certified = 0
        for digest in targets:
            key = by_digest.get(digest)
            capacity = args.capacity if args.capacity else (key.s if key else None)
            if capacity is None:
                print(f"skipping {digest[:12]}: no key in the manifest and "
                      f"no --capacity")
                continue
            schedule = store.get(key) if key else None
            if schedule is None:
                findings.append(Finding(
                    code="RPS107", message=f"store object {digest[:12]} is "
                    f"unreadable or missing", context={"digest": digest},
                ))
                continue
            cert = certify_schedule(schedule, capacity)
            findings.extend(
                Finding(code=f.code, message=f"[{digest[:12]}] {f.message}",
                        severity=f.severity, op_index=f.op_index,
                        context=dict(f.context, digest=digest))
                for f in cert.findings
            )
            certified += 1
        stats = {"objects": certified}
        ok = not has_errors(findings)
        if fmt == "table":
            print(banner(f"check store: {args.store} ({certified} object(s))"))
        _emit("store", sort_findings(findings), stats, fmt, ok)
        return 0 if ok else 1

    # ---- artifact mode ------------------------------------------------
    if args.artifact is not None:
        from ..trace.io import file_kind, load_schedule

        if file_kind(args.artifact) != "schedule":
            print(f"{args.artifact}: the certifier needs a schedule file "
                  f"(with explicit loads/evicts), not a trace")
            return 2
        if args.capacity is None:
            print("check ARTIFACT needs --capacity S")
            return 2
        schedule = load_schedule(args.artifact)
        cert = certify_schedule(schedule, args.capacity)
        if fmt == "table":
            print(banner(f"check schedule: {args.artifact} (S={args.capacity})"))
        _emit("artifact", cert.findings, _cert_rows(args.artifact, cert),
              fmt, cert.ok)
        return 0 if cert.ok else 1

    # ---- kernel mode --------------------------------------------------
    if args.kernel is None:
        print("check needs an artifact path, --store, --kernel or --lint "
              "(see python -m repro check --help)")
        return 2

    from ..graph.compare import record_case

    case = record_case(args.kernel, args.n, args.m, args.s)
    cert = certify_schedule(case.schedule, case.capacity)
    findings = list(cert.findings)
    stats = _cert_rows(f"{args.kernel} n={args.n}", cert)

    if args.p > 1:
        from ..parallel.executor import partition_graph

        owner = partition_graph(case.graph, args.p, args.partitioner)
        findings.extend(check_races(
            case.graph, owner, relax_reductions=args.relax))
        findings.extend(check_conservation(
            case.graph, owner,
            exclusive_writer=args.partitioner == "owner-computes"))
        stats["p"] = args.p
        stats["partitioner"] = args.partitioner

    ok = not has_errors(findings)
    if fmt == "table":
        mode = f"{args.kernel} n={args.n} m={args.m} s={args.s}"
        if args.p > 1:
            mode += f" p={args.p} ({args.partitioner})"
        print(banner(f"check kernel: {mode}"))
    _emit("kernel", sort_findings(findings), stats, fmt, ok)
    return 0 if ok else 1
