package repro.perfbench

import repro.core.Strategy
import repro.tpch.{LiteQuery, QueryCatalog}

/** How one operation runs a query: through the library under a strategy, or
  * as its SQL text with the Catalyst rule off or on.
  *
  * @param key metric-name stem, e.g. `pt` for `pt_s`
  */
sealed abstract class Mode(val key: String) {
  def isReference: Boolean
}

object Mode {
  final case class Library(strategy: Strategy) extends Mode(Library.keys(strategy)) {
    def isReference: Boolean = strategy == Strategy.NoPredTrans
  }
  object Library {
    val keys: Map[Strategy, String] = Map(
      Strategy.NoPredTrans -> "npt", Strategy.BloomJoin -> "bj",
      Strategy.Yannakakis -> "yan", Strategy.PredTrans -> "pt")
  }

  final case class Sql(ruleOn: Boolean) extends Mode(if (ruleOn) "rule_on" else "rule_off") {
    def isReference: Boolean = !ruleOn
  }

  /** Every mode, reference modes first within each family. */
  val all: Seq[Mode] = Seq(Strategy.NoPredTrans, Strategy.BloomJoin, Strategy.Yannakakis,
    Strategy.PredTrans).map(Library(_)) ++ Seq(Sql(false), Sql(true))
}

/** One query run one way; the unit the benchmark times and checks. */
final case class Op(query: LiteQuery, mode: Mode) {
  def label: String = s"${query.name}/${mode.key}"
}

/** A named benchmark input: dataset size, Spark parallelism and the queries
  * run through the library (all four strategies) and as SQL (rule off, on).
  * Every workload runs every mode, so every end-to-end metric exists in
  * every workload.
  */
final case class Workload(
    name: String,
    master: String,
    sf: Double,
    libraryQueries: Seq[String],
    sqlQueries: Seq[String],
) {
  require(!libraryQueries.exists(Workload.ComposedInside),
    "traced runs time the layers of single-block queries only")

  /** One round: per query, the reference mode runs before the modes checked
    * against it.
    */
  val ops: Seq[Op] = {
    val lib = libraryQueries.map(QueryCatalog.byName).flatMap(q =>
      Mode.all.collect { case m: Mode.Library => Op(q, m) })
    val sql = sqlQueries.map(QueryCatalog.byName).flatMap(q =>
      Mode.all.collect { case m: Mode.Sql => Op(q, m) })
    lib ++ sql
  }
}

object Workload {
  val ShufflePartitions = 4

  /** Queries whose `LiteQuery.execute` composes the layers itself (a
    * decorrelated subquery runs first), so the benchmark cannot put a span
    * around each layer call.
    */
  val ComposedInside: Set[String] = Set("Q2", "Q17", "Q18")

  // SF 0.01 keeps a run near a minute: at this size every op is dominated by
  // fixed per-job cost, and a larger SF would not fit the run budget.
  // local[1] is the paper's single-core regime; one task thread also leaves
  // the machine's other cores to the JIT compiler and the driver threads.
  val all: Seq[Workload] = Seq(
    // Q5 joins six relations over a cyclic join graph (the paper's running
    // example), Q10 four: transfer has whole chains of joins to prune.
    Workload("multi-join", "local[1]", 0.01,
      libraryQueries = Seq("Q5"), sqlQueries = Seq("Q10")),
    // Queries joining 2-3 relations: transfer and the rule have little to
    // prune, so their fixed cost shows.
    Workload("few-join", "local[1]", 0.01,
      libraryQueries = Seq("Q3", "Q12", "Q14"), sqlQueries = Seq("Q12", "Q14")),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
