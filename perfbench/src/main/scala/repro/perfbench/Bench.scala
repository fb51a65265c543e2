package repro.perfbench

import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicBoolean
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.catalyst.plans.LeftSemi
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import org.apache.spark.sql.types.StructType
import repro.{SynthData, TestData}
import repro.catalyst.{PredicateTransferExtensions, PredicateTransferRule}
import repro.core._
import repro.tpch.{LiteQuery, QueryCatalog, TpchLite}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One successful, timed execution of an [[Op]].
  *
  * @param transferNs  the program's own pre-filter phase time (library ops)
  * @param cachedBytes storage held beyond what existed before the op, read
  *                    when the pre-filter phase returned
  * @param vertexOrder transfer-graph visiting order (traced Pred-Trans ops)
  */
final case class Sample(
    seconds: Double,
    transferNs: Long = 0L,
    cachedBytes: Long = 0L,
    reducedRows: Map[String, Long] = Map.empty,
    builds: BuildLog = new BuildLog,
    vertexOrder: Seq[String] = Nil,
)

final case class Metric(name: String, value: Double, unit: String)

/** Runs one workload in a closed loop with one client: set-up, a warm-up
  * round, then a fixed number of measured rounds of every op. Every result
  * is checked against the reference mode's result from the same run.
  */
final class Bench(w: Workload, seed: Long, seconds: Int, traceRun: Boolean) {
  import Bench._

  private val report = mutable.ArrayBuffer.empty[String]
  private def say(line: String): Unit = report += line
  private val born = System.nanoTime()
  private def progress(what: String): Unit =
    Console.err.println(f"[perfbench ${secondsSince(born)}%7.1f s] $what")

  private val sessionStart = System.nanoTime()
  val spark: SparkSession = SparkSession.builder
    .master(w.master)
    .appName(s"perfbench-${w.name}")
    .config("spark.sql.shuffle.partitions", Workload.ShufflePartitions.toLong)
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", false)
    .getOrCreate()
  private val sessionSeconds = secondsSince(sessionStart)
  private val sc = spark.sparkContext
  PredicateTransferExtensions.install(spark)
  ruleOff()

  private val tracer = new Tracer(sc, traceRun)
  private val watchdog = Executors.newSingleThreadScheduledExecutor { r =>
    val t = new Thread(r, "perfbench-watchdog"); t.setDaemon(true); t
  }

  private var attempted = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  /** Canonical reference result per (query, is-SQL). */
  private val references = mutable.Map.empty[(String, Boolean), Seq[Seq[String]]]

  // ---- set-up --------------------------------------------------------------

  private var data: TpchLite = _
  private val setupSeconds: Seq[Double] = (1 to SetupRepeats).map { _ =>
    if (data != null) data.byName.values.foreach(_.unpersist(blocking = true))
    val t = System.nanoTime()
    data = tracer.span("setup")(dataset(spark, w.sf, seed).cached())
    secondsSince(t)
  }
  data.byName.foreach { case (name, df) => df.createOrReplaceTempView(name) }
  private val baseCachedBytes: Long = { tracer.drain(); tracer.listener.storedBytes }

  // ---- one op ----------------------------------------------------------------

  private def cachedRdds(): Map[Int, Long] =
    sc.getRDDStorageInfo.map(i => i.id -> (i.memSize + i.diskSize)).toMap

  private def library(q: LiteQuery, s: Strategy): (Sample, Array[Row], StructType) = {
    val m = new ExecMetrics
    val log = new BuildLog
    val opts = ExecOpts(materializeReduced = true)
    val prefilter = s == Strategy.PredTrans || s == Strategy.Yannakakis
    val before = if (prefilter) cachedRdds() else Map.empty[Int, Long]
    var pausedNs = 0L
    var cached = 0L
    def prefilterReturned(): Unit = if (prefilter) {
      val t = System.nanoTime()
      cached = cachedRdds().collect { case (id, b) if !before.contains(id) => b }.sum
      pausedNs += System.nanoTime() - t
    }
    var order = Seq.empty[String]

    val t0 = System.nanoTime()
    val (rows, schema) =
      if (!tracer.active) {
        val df = q.execute(data, s, opts, Some(m))
        prefilterReturned()
        (m.timeJoin(df.collect()), df.schema)
      } else {
        // The calls Executor.execute makes, one span around each layer.
        val query = q.build(data)
        val g = query.graph
        val reduced = s match {
          case Strategy.NoPredTrans | Strategy.BloomJoin =>
            g.tables.map(t => t.name -> t.filtered).toMap
          case Strategy.PredTrans =>
            order = TransferGraph.orient(g).order
            tracer.span("transfer") {
              PredicateTransfer.reduce(g,
                new TimingFilterBuilder(BloomFilterBuilder(opts.bloomFpp), "transfer", tracer, log),
                Some(m), materialize = opts.materializeReduced)
            }
          case Strategy.Yannakakis =>
            val root = opts.yannakakisRoot.getOrElse(g.tables.minBy(t => (t.estRows, t.name)).name)
            tracer.span("semijoin")(Yannakakis.reduce(g, root, opts.materializeReduced, Some(m)))
        }
        prefilterReturned()
        val inlineBloom =
          if (s == Strategy.BloomJoin)
            Some(new TimingFilterBuilder(BloomFilterBuilder(opts.bloomFpp), "bloomjoin", tracer, log))
          else None
        tracer.span("join") {
          val df = JoinPhase.execute(query, reduced, inlineBloom, Some(m))
          (m.timeJoin(df.collect()), df.schema)
        }
      }
    m.release()
    val secs = (System.nanoTime() - t0 - pausedNs) / 1e9
    (Sample(secs, m.transferNanos, cached, m.reducedRows.toMap, log, order), rows, schema)
  }

  private def sql(q: LiteQuery, ruleOn: Boolean): (Sample, Array[Row], StructType) = {
    spark.conf.set(PredicateTransferRule.EnabledKey, ruleOn.toString)
    try {
      val t0 = System.nanoTime()
      val df = spark.sql(q.oracleSql)
      tracer.span("sql.optimize")(df.queryExecution.optimizedPlan)
      val rows = tracer.span("sql.execute")(df.collect())
      (Sample(secondsSince(t0)), rows, df.schema)
    } finally ruleOff()
  }

  /** The rule stays installed but disabled outside rule-on SQL ops, so the
    * library ops never see it.
    */
  private def ruleOff(): Unit = spark.conf.set(PredicateTransferRule.EnabledKey, "false")

  /** Compare with the reference result; the first reference-mode result of
    * a query becomes its reference.
    */
  private def mismatch(op: Op, rows: Array[Row], schema: StructType): Option[String] = {
    val canon = TestData.canon(spark.createDataFrame(rows.toSeq.asJava, schema))
    val key = (op.query.name, op.mode.isInstanceOf[Mode.Sql])
    references.get(key) match {
      case None if op.mode.isReference => references(key) = canon; None
      case None                        => Some("no reference result to check against")
      case Some(ref) if ref == canon   => None
      case Some(ref) =>
        Some(s"result differs from the reference (${canon.size} rows vs ${ref.size}; " +
          s"only here: ${canon.diff(ref).take(2)}; only in reference: ${ref.diff(canon).take(2)})")
    }
  }

  private def run(op: Op, round: Int): Option[Sample] = {
    attempted += 1
    val group = s"perfbench-op-$attempted"
    val timedOut = new AtomicBoolean(false)
    sc.setJobGroup(group, op.label, interruptOnCancel = true)
    val alarm = watchdog.schedule(new Runnable {
      def run(): Unit = { timedOut.set(true); sc.cancelJobGroup(group) }
    }, OpLimitSeconds, TimeUnit.SECONDS)
    val outcome =
      try {
        val (sample, rows, schema) = tracer.inTrace(s"${w.name}/${op.label}", round) {
          tracer.span("op") {
            op.mode match {
              case Mode.Library(s) => library(op.query, s)
              case Mode.Sql(on)    => sql(op.query, on)
            }
          }
        }
        if (timedOut.get) Left(s"over the $OpLimitSeconds s limit")
        else mismatch(op, rows, schema).toLeft(sample)
      } catch {
        case NonFatal(e) =>
          Left(if (timedOut.get) s"over the $OpLimitSeconds s limit"
               else s"threw ${e.getClass.getSimpleName}: " +
                 Option(e.getMessage).flatMap(_.linesIterator.nextOption()).getOrElse(""))
      } finally {
        alarm.cancel(false)
        sc.clearJobGroup()
      }
    outcome.left.foreach(why => failures += s"${op.label} (round $round): $why")
    outcome.toOption
  }

  private def round(r: Int, traced: Boolean): Map[Op, Sample] = {
    progress(s"round $r${if (traced) " (traced)" else ""}")
    tracer.active = traced
    try w.ops.flatMap(op => run(op, r).map(op -> _)).toMap
    finally tracer.active = false
  }

  // ---- measurement ---------------------------------------------------------

  private val plainRounds = mutable.ArrayBuffer.empty[Map[Op, Sample]]
  private val tracedRounds = mutable.ArrayBuffer.empty[(Int, Map[Op, Sample])]

  /** Warm-up round (untimed; it also fixes the reference results), then the
    * measured rounds, at least two. Their number is fixed by `seconds`, not
    * by the clock, so every run does the same work and a fast run does not
    * gain extra, warmer rounds. Only a run slowed far beyond the nominal
    * round length stops early: it starts no round, after the second, that
    * would likely end more than `RunLimitFactor * seconds` after the run
    * began. A traced run alternates untraced and traced rounds.
    */
  private def measure(): Double = {
    round(0, traced = false)
    val start = System.nanoTime()
    val rounds = math.max(2, math.round(seconds / RoundSeconds).toInt)
    var last = 0.0
    var r = 1
    while (r <= rounds && (r <= 2 || secondsSince(born) + last <= RunLimitFactor * seconds)) {
      val t = System.nanoTime()
      val traced = traceRun && r % 2 == 0
      val samples = round(r, traced)
      if (traced) tracedRounds += r -> samples else plainRounds += samples
      last = secondsSince(t)
      r += 1
    }
    if (r <= rounds) say(s"stopped after ${r - 1} of $rounds rounds: over the run's time limit")
    secondsSince(start)
  }

  /** An op's warm time: the mean of its measured rounds without the
    * slowest one. Bursts of load from outside the run hit single rounds, and
    * the slowest round takes the worst of them; the rounds left are averaged
    * rather than the fastest one taken, because on a shared machine single
    * rounds also run luckily fast.
    */
  private def opSeconds(rounds: Seq[Map[Op, Sample]], op: Op): Option[Double] = {
    val xs = rounds.flatMap(_.get(op)).map(_.seconds).sorted
    val kept = if (xs.size > 1) xs.init else xs
    if (kept.isEmpty) None else Some(kept.sum / kept.size)
  }

  /** Warm wall time of one pass over `mode`'s ops, summed over its ops. */
  private def passSeconds(rounds: Seq[Map[Op, Sample]], mode: Mode): Double =
    w.ops.filter(_.mode == mode).flatMap(opSeconds(rounds, _)).sum

  private def endToEnd(): Seq[Metric] = {
    val rounds = plainRounds.toSeq
    Metric("setup_s", sessionSeconds + median(setupSeconds), "s") +:
      Mode.all.map(m => Metric(s"${m.key}_s", passSeconds(rounds, m), "s")) :+
      Metric("peak_cached_mb",
        rounds.flatMap(_.values.map(_.cachedBytes)).maxOption.getOrElse(0L) / MB, "MB")
  }

  private def describeEndToEnd(): Unit = {
    val rounds = plainRounds.toSeq
    say(f"${"op"}%-16s ${"runs"}%4s ${"median s"}%9s ${"min s"}%8s ${"max s"}%8s")
    for (op <- w.ops) {
      val xs = rounds.flatMap(_.get(op)).map(_.seconds)
      if (xs.nonEmpty)
        say(f"${op.label}%-16s ${xs.size}%4d ${median(xs)}%9.3f ${xs.min}%8.3f ${xs.max}%8.3f")
    }
    // Figure 2 and Figure 3 quantities, printed beside the metrics, not gated.
    val lib = w.libraryQueries.map(QueryCatalog.byName)
    def best(q: LiteQuery, s: Strategy) = opSeconds(rounds, Op(q, Mode.Library(s)))
    for (base <- Seq(Strategy.NoPredTrans, Strategy.BloomJoin, Strategy.Yannakakis)) {
      val ratios = lib.flatMap(q => for (b <- best(q, base); p <- best(q, Strategy.PredTrans)) yield b / p)
      if (ratios.nonEmpty)
        say(f"geomean speedup of Pred-Trans over $base: ${geomean(ratios)}%.3fx (${ratios.size} queries)")
    }
    def phaseNs(s: Strategy) = lib.flatMap(q => medianOption(
      rounds.flatMap(_.get(Op(q, Mode.Library(s)))).map(_.transferNs.toDouble))).sum
    val (yan, pt) = (phaseNs(Strategy.Yannakakis), phaseNs(Strategy.PredTrans))
    if (pt > 0)
      say(f"semi-join phase ${yan / 1e6}%.1f ms / transfer phase ${pt / 1e6}%.1f ms = ${yan / pt}%.2fx")
  }

  // ---- traced run: per-layer metrics -----------------------------------------

  private def countPlan(p: LogicalPlan): (Int, Int, Int) =
    (p.collect { case n => n }.size, p.collectLeaves().size,
     p.collect { case j: Join if j.joinType == LeftSemi => j }.size)

  /** Optimized-plan size of all 13 SQL texts, rule off and on (optimizing is
    * cheap even where executing is not).
    */
  private def planCounters(): Seq[Metric] = {
    val perText = for (q <- QueryCatalog.all; on <- Seq(false, true)) yield {
      spark.conf.set(PredicateTransferRule.EnabledKey, on.toString)
      (q.name, on, countPlan(spark.sql(q.oracleSql).queryExecution.optimizedPlan))
    }
    ruleOff()
    say("plan counters (nodes / leaf scans / left-semi joins), rule off -> on:")
    perText.grouped(2).foreach { case Seq((n, _, (a, b, c)), (_, _, (d, e, f))) =>
      say(f"  $n%-4s $a%5d / $b%4d / $c%4d  ->  $d%5d / $e%4d / $f%4d")
    }
    def total(on: Boolean, pick: ((Int, Int, Int)) => Int) =
      perText.filter(_._2 == on).map(x => pick(x._3)).sum.toDouble
    val metrics = for ((name, pick) <- Seq[(String, ((Int, Int, Int)) => Int)](
      "plan_nodes" -> (_._1), "leaf_scans" -> (_._2), "semijoins" -> (_._3));
      on <- Seq(true, false))
      yield Metric(s"rule.$name.${if (on) "on" else "off"}", total(on, pick), "count")
    metrics :+ Metric("rule.scan_ratio", total(true, _._2) / total(false, _._2), "ratio")
  }

  /** Left-deep HT + PR input rows per strategy (the Table 1 quantity). */
  private def joinInputRows(): Seq[Metric] = {
    val lib = w.libraryQueries.map(QueryCatalog.byName)
    val byMode = for ((s, key) <- Mode.Library.keys.toSeq) yield {
      val steps = lib.map(q => q -> Executor.runJoinMetrics(q.build(data), s).steps.toSeq)
      for ((q, st) <- steps)
        say(s"  ${q.name} $s HT/PR: " + st.map(x => s"${x.buildRows}/${x.probeRows}").mkString(" "))
      Metric(s"join.input_rows.$key",
        steps.flatMap(_._2).map(x => x.buildRows + x.probeRows).sum.toDouble, "count")
    }
    byMode.sortBy(_.name)
  }

  private def layerRound(r: Int, samples: Map[Op, Sample], rowsIn: Double): Map[String, Metric] = {
    val spans = tracer.spans.filter(_.round == r)
    def named(n: String) = spans.filter(_.name == n)
    def modeOf(s: Span) = s.trace.split('/').last
    def ms(ss: Seq[Span]) = ss.map(_.durNs).sum / 1e6
    def under(ss: Seq[Span]) = { val c = new Counters; ss.foreach(s => c += tracer.countersUnder(s)); c }
    def of(s: Strategy) = samples.collect { case (op, x) if op.mode == Mode.Library(s) => x }.toSeq

    val transfer = named("transfer"); val tc = under(transfer)
    val semi = named("semijoin"); val yc = under(semi)
    val joins = named("join")
    val bjBuilds = named("bloomjoin.build")
    val ops = named("op")
    val pt = of(Strategy.PredTrans)
    val rowsOut = pt.map(_.reducedRows.values.sum).sum.toDouble
    val idle = pt.map { x =>
      val n = x.vertexOrder.size
      val counts = x.builds.rowCounts
      if (counts.size != 2 * n) 0
      else {
        val fwd = x.vertexOrder.zip(counts.take(n)).toMap
        x.vertexOrder.reverse.zip(counts.drop(n)).count { case (v, c) => c >= fwd(v) }
      }
    }.sum
    val ruleOn = ops.filter(modeOf(_) == Mode.Sql(true).key)

    val perMode = Mode.all.collect { case m: Mode.Library => m }.flatMap { m =>
      val c = under(ops.filter(modeOf(_) == m.key))
      Seq(Metric(s"join.${m.key}_ms", ms(joins.filter(modeOf(_) == m.key)), "ms"),
          Metric(s"exec.jobs.${m.key}", c.jobs.toDouble, "count"),
          Metric(s"exec.tasks.${m.key}", c.tasks.toDouble, "count"),
          Metric(s"exec.gc_ms.${m.key}", c.gcMs.toDouble, "ms"))
    }
    (Seq(
      Metric("transfer.ms", ms(transfer), "ms"),
      Metric("transfer.build_ms", ms(named("transfer.build")), "ms"),
      Metric("transfer.task_ms", tc.runMs.toDouble, "ms"),
      Metric("transfer.jobs", tc.jobs.toDouble, "count"),
      Metric("transfer.filters", pt.map(_.builds.filters).sum.toDouble, "count"),
      Metric("transfer.filter_kb", pt.map(_.builds.bloomBytes).sum / 1024.0, "KB"),
      Metric("transfer.rows_in", rowsIn, "count"),
      Metric("transfer.rows_out", rowsOut, "count"),
      Metric("transfer.keep_ratio", rowsOut / math.max(rowsIn, 1.0), "ratio"),
      Metric("transfer.idle_steps", idle.toDouble, "count"),
      Metric("semijoin.ms", ms(semi), "ms"),
      Metric("semijoin.jobs", yc.jobs.toDouble, "count"),
      Metric("semijoin.task_ms", yc.runMs.toDouble, "ms"),
      Metric("semijoin.shuffle_mb", yc.shuffleWriteBytes / MB, "MB"),
      Metric("semijoin.rows_out",
        of(Strategy.Yannakakis).map(_.reducedRows.values.sum).sum.toDouble, "count"),
      Metric("join.shuffle_mb", under(joins).shuffleWriteBytes / MB, "MB"),
      Metric("bloomjoin.build_ms", ms(bjBuilds), "ms"),
      Metric("bloomjoin.jobs", under(bjBuilds).jobs.toDouble, "count"),
      Metric("rule.optimize_ms",
        ms(named("sql.optimize").filter(modeOf(_) == Mode.Sql(true).key)), "ms"),
      Metric("rule.jobs", under(ruleOn).jobs.toDouble, "count"),
      Metric("rule.task_ms", under(ruleOn).runMs.toDouble, "ms"),
    ) ++ perMode).map(m => m.name -> m).toMap
  }

  private def perLayer(): Seq[Metric] = {
    progress("per-layer counts")
    // Rows entering the transfer phase: each table after its local filter.
    val rowsIn = w.libraryQueries.map(QueryCatalog.byName)
      .map(q => q.build(data).graph.tables.map(_.filtered.count()).sum).sum.toDouble
    say("join-phase input rows per left-deep step:")
    val inputRows = joinInputRows()
    progress("plan counters")
    val plans = planCounters()
    tracer.drain()
    val rounds = tracedRounds.toSeq.map { case (r, s) => layerRound(r, s, rowsIn) }
    val timed = rounds.head.keys.toSeq.sorted.map { k =>
      Metric(k, median(rounds.map(_(k).value)), rounds.head(k).unit)
    }
    val setups = tracer.spans.filter(_.name == "setup")
    Seq(Metric("tpch.cache_s", median(setups.map(_.durNs / 1e9)), "s"),
        Metric("tpch.cached_mb", baseCachedBytes / MB, "MB")) ++ timed ++ inputRows ++ plans
  }

  private def describeSpans(): Unit = {
    say(f"${"span"}%-16s ${"count"}%6s ${"total ms"}%10s ${"self ms"}%10s ${"jobs"}%6s " +
      f"${"stages"}%6s ${"tasks"}%6s ${"shuffle r/w MB"}%15s")
    for ((name, ss) <- tracer.spans.groupBy(_.name).toSeq.sortBy(_._1)) {
      val own = new Counters
      ss.foreach(s => own += tracer.listener.counters(s.id))
      say(f"$name%-16s ${ss.size}%6d ${ss.map(_.durNs).sum / 1e6}%10.1f " +
        f"${ss.map(tracer.selfNs).sum / 1e6}%10.1f ${own.jobs}%6d ${own.stages}%6d ${own.tasks}%6d " +
        f"${own.shuffleReadBytes / MB}%7.2f/${own.shuffleWriteBytes / MB}%7.2f")
    }
    val traced = tracedRounds.map(_._2).toSeq
    // Rounds run warmer as the run goes on, so the in-run difference leans
    // negative; an untraced run of the same seed is the other baseline.
    say("one pass, untraced rounds -> traced rounds of this run: " + Mode.all.map { m =>
      val (u, t) = (passSeconds(plainRounds.toSeq, m), passSeconds(traced, m))
      f"${m.key}_s $u%.3f -> $t%.3f (${(t - u) * 1000}%+.0f ms)"
    }.mkString(", "))
  }

  // ---- the whole run ---------------------------------------------------------

  /** Measure, then return the report lines and the final JSON line. */
  def execute(outDir: Option[java.nio.file.Path]): (Seq[String], String) = {
    val measuredSeconds = measure()
    say(s"workload ${w.name}: ${w.master}, SF ${w.sf}, seed $seed; " +
      s"${plainRounds.size} untraced and ${tracedRounds.size} traced rounds in " +
      f"$measuredSeconds%.1f s after set-up (session ${sessionSeconds}%.2f s, data " +
      setupSeconds.map(x => f"$x%.2f").mkString("/") + " s)")
    describeEndToEnd()
    val metrics =
      if (!traceRun) endToEnd()
      else {
        val layers = perLayer()
        describeSpans()
        outDir.foreach(d => tracer.write(d.resolve(s"trace-${w.name}-seed$seed.jsonl")))
        layers
      }
    metrics.foreach(m => say(f"${m.name} = ${m.value}%.4f ${m.unit}"))
    say(s"failed operations: ${failures.size} of $attempted")
    failures.foreach(f => say(s"  FAILED $f"))
    (report.toSeq, json(failures.isEmpty, attempted, failures.size, metrics))
  }

  def stop(): Unit = {
    watchdog.shutdownNow()
    spark.stop()
  }
}

object Bench {
  /** Set-ups per run; `setup_s` reports their median. */
  val SetupRepeats = 3

  /** Nominal wall time of one measured round of either workload on a
    * 4-core machine; `--seconds` buys one round per this many seconds.
    */
  val RoundSeconds = 10.0

  /** Bounds a run's time on a machine slowed by outside load (see
    * `measure`): 72 s after the run began with `--seconds 30`.
    */
  val RunLimitFactor = 2.4

  /** An op running longer than this is cancelled and counted as failed. */
  val OpLimitSeconds = 60L

  val MB: Double = 1024.0 * 1024.0

  /** The TPC-H-lite tables with every generator seed shifted by `seed`;
    * seed 0 gives exactly `TpchLite(spark, sf)`.
    */
  def dataset(spark: SparkSession, sf: Double, seed: Long): TpchLite = TpchLite(
    spark, sf,
    lineitem = SynthData.lineitem(spark, sf, seed),
    orders = SynthData.orders(spark, sf, 1 + seed),
    customer = SynthData.customer(spark, sf, 2 + seed),
    part = SynthData.part(spark, sf, 5 + seed),
    supplier = SynthData.supplier(spark, sf, 7 + seed),
    partsupp = SynthData.partsupp(spark, sf, 6 + seed),
    nation = SynthData.nation(spark),
    region = SynthData.region(spark),
  )

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = medianOption(xs).getOrElse(0.0)

  def medianOption(xs: Seq[Double]): Option[Double] =
    if (xs.isEmpty) None
    else {
      val s = xs.sorted
      Some(if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2)
    }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val body = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is not a number")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}"""
  }
}
