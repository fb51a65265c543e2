package repro.core

import org.apache.spark.sql.{DataFrame, Row}

/** Execution options shared by all strategies.
  *
  * @param bloomFpp           target false-positive rate for every Bloom filter
  * @param yannakakisRoot     join-tree root for the Yannakakis baseline;
  *                           defaults to the smallest table (the paper picks
  *                           one arbitrarily and notes the sensitivity)
  * @param materializeReduced persist+count reduced tables at the end of the
  *                           pre-filter phase so phase timings are honest
  *                           (used by timed benchmark runs). Under Pred-Trans
  *                           a forward sink is materialized by the backward
  *                           pass, which starts from it.
  * @param collectStepSizes   record per-join HT/PR input sizes (Table 1 runs)
  */
final case class ExecOpts(
    bloomFpp: Double = 0.01,
    yannakakisRoot: Option[String] = None,
    materializeReduced: Boolean = false,
    collectStepSizes: Boolean = false,
)

/** Runs a [[JoinQuery]] under a [[Strategy]]: pre-filter phase (strategy
  * specific) followed by the shared join phase. This is the library-level
  * engine behind every benchmark; the Catalyst rule in `repro.catalyst` is
  * the planner-integrated (precise-filter) variant.
  */
object Executor {

  /** Phase 1 — produce the reduced table for every vertex. */
  def reducedTables(
      query: JoinQuery,
      strategy: Strategy,
      opts: ExecOpts,
      metrics: Option[ExecMetrics],
  ): Map[String, DataFrame] = {
    val g = query.graph
    strategy match {
      case Strategy.NoPredTrans | Strategy.BloomJoin =>
        g.tables.map(t => t.name -> t.filtered).toMap
      case Strategy.PredTrans =>
        // materialization happens inside the transfer passes: each vertex's
        // row count is folded into the same scan that builds its outgoing
        // filters, so the join phase starts from cached pre-filtered tables
        // (the paper's unified plan) at no extra pass.
        PredicateTransfer.reduce(g, BloomFilterBuilder(opts.bloomFpp), metrics,
          materialize = opts.materializeReduced)
      case Strategy.Yannakakis =>
        val root = opts.yannakakisRoot.getOrElse(
          g.tables.minBy(t => (t.estRows, t.name)).name)
        Yannakakis.reduce(g, root, opts.materializeReduced, metrics)
    }
  }

  /** Plan the full query under `strategy`. Eager work (Bloom builds,
    * materialization) happens now; the returned DataFrame is the lazily
    * planned join phase.
    */
  def execute(
      query: JoinQuery,
      strategy: Strategy,
      opts: ExecOpts = ExecOpts(),
      metrics: Option[ExecMetrics] = None,
  ): DataFrame = {
    val reduced = reducedTables(query, strategy, opts, metrics)
    val inlineBloom =
      if (strategy == Strategy.BloomJoin) Some(BloomFilterBuilder(opts.bloomFpp)) else None
    JoinPhase.execute(query, reduced, inlineBloom, metrics, opts.collectStepSizes)
  }

  /** Convenience: run without measurement. */
  def run(query: JoinQuery, strategy: Strategy): DataFrame =
    execute(query, strategy)

  /** Timed run: phase-separated wall times, result collected. Reduced tables
    * are materialized so the pre-filter phase pays (and is charged) its own
    * cost, as in the paper's breakdown (Figure 3).
    */
  def runTimed(
      query: JoinQuery,
      strategy: Strategy,
      opts: ExecOpts = ExecOpts(),
  ): (Array[Row], ExecMetrics) = {
    val m = new ExecMetrics
    val df = execute(query, strategy, opts.copy(materializeReduced = true), Some(m))
    val rows = m.timeJoin(df.collect())
    m.resultRows = rows.length.toLong
    m.release()
    (rows, m)
  }

  /** Metric run: per-join HT/PR sizes (Table 1). Not for timing. */
  def runJoinMetrics(
      query: JoinQuery,
      strategy: Strategy,
      opts: ExecOpts = ExecOpts(),
  ): ExecMetrics = {
    val m = new ExecMetrics
    execute(query, strategy, opts.copy(collectStepSizes = true), Some(m))
    m.release()
    m
  }
}
