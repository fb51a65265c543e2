#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program's sources together with the
benchmark's own sources (sbt, offline) into the build directory; later runs reuse
that build while the sources are unchanged. Each run starts one JVM, which
prints a report and, as its last line, one JSON object with the metrics.
All files the run writes stay under the build directory (`$CARGO_TARGET_DIR`,
default `.bench_build`) and sbt's own `target/` directories; the build reads
the user's sbt and coursier caches, offline.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path("perfbench")
PROGRAM_SOURCES = [Path("src/main/scala"),
                   Path("src/test/scala/repro/TestData.scala"),
                   Path("src/test/scala/repro/SparkSpec.scala")]
BENCH_SOURCES = [BENCH_DIR / "build.sbt", BENCH_DIR / "project/build.properties",
                 BENCH_DIR / "src"]
MAIN_CLASS = "repro.perfbench.Main"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# -XX:-UsePerfData: no hsperfdata file in the system temp directory.
# -XX:+UseSerialGC: no GC worker threads competing with the measured work;
# on a 4-core machine it made ops faster and their times steadier than G1.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseSerialGC", "-XX:-UsePerfData"]

# The module opens Spark 4 needs on JDK 17+, as the repository's build passes.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio",
         "java.base/java.util", "java.base/java.util.concurrent",
         "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    if len(argv) % 2:
        fail("arguments come in --name value pairs")
    args = dict(zip(argv[::2], argv[1::2]))
    need = {"--workload", "--seed", "--seconds", "--trace"}
    if set(args) != need:
        fail(f"expected exactly {' '.join(sorted(need))}")
    return args


def fingerprint():
    """Hash of every source file the build reads."""
    h = hashlib.sha256()
    for root in PROGRAM_SOURCES + BENCH_SOURCES:
        files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout, error
    or SIGTERM, and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def spark_home():
    """The Spark installation to compile against: $SPARK_HOME, else the first
    directory on PATH holding a spark-submit next to a jars/ directory."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = Path(d).resolve().parent
        if (Path(d) / "spark-submit").is_file() and (home / "jars").is_dir():
            return str(home)
    fail("set SPARK_HOME or put Spark's bin/ on PATH", 1)


def build(build_dir):
    """Compile with sbt and record the runtime classpath, once per source state."""
    stamp = build_dir / "fingerprint"
    cp_file = build_dir / "classpath"
    fp = fingerprint()
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == fp:
        return cp_file.read_text().strip()
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark_home())
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts.append(f"-Dsbt.repository.config={repos}")
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
           "export Runtime/fullClasspath"]
    try:
        code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=BENCH_DIR, env=env,
                              stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        fail(f"build took over {BUILD_TIMEOUT_S} s", 1)
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (sbt exit {code})", 1)
    build_dir.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp.write_text(fp)
    return lines[-1]


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(sys.argv[1:])
    missing = [str(p) for p in PROGRAM_SOURCES + BENCH_SOURCES if not p.exists()]
    if missing:
        fail(f"run from the root of a source checkout; missing {', '.join(missing)}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"
    classpath = build(build_dir)

    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + JVM_OPTS + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] +
           ["-Dspark.driver.host=127.0.0.1", "-Dspark.sql.maxPlanStringLength=100000",
            f"-Dspark.local.dir={tmp}", f"-Djava.io.tmpdir={tmp}",
            "-cp", classpath, MAIN_CLASS] +
           [x for k, v in args.items() for x in (k, v)] + ["--out", str(build_dir / "traces")])
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run took over {RUN_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with {code}", code or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed a malformed result", 1)
    print(out, end="")


if __name__ == "__main__":
    main()
