package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** The predicate transfer phase (paper §3.2): one forward and one backward
  * pass over the smaller→bigger [[TransferGraph]].
  *
  * Forward pass, in topological (= ascending size) order: each table applies
  * its local predicate plus every incoming filter, then builds one outgoing
  * filter per outgoing edge from the filtered rows — the paper's "filter
  * transformation". All of a vertex's outgoing filters are built in a single
  * scan ([[FilterBuilder.buildMany]]), matching the paper's "the
  * transformation will scan the table only once, regardless of the number of
  * incoming or outgoing edges". The backward pass repeats the process on the
  * reversed graph, starting from the forward-reduced tables.
  *
  * With [[BloomFilterBuilder]] this is Pred-Trans; with [[ExactFilterBuilder]]
  * every transfer is a semi-join and the phase degenerates to a generalized
  * (any-topology) Yannakakis reduction.
  */
object PredicateTransfer {

  /** Run both passes and return the reduced table for every vertex. Building
    * each vertex's filters is one eager Spark job; applying filters stays
    * lazy unless `materialize` is set.
    *
    * @param materialize persist each reduced table and fold its row count
    *                    into the same scan that builds its outgoing filters —
    *                    used by timed runs so the join phase starts from
    *                    cached pre-filtered tables (the paper's unified plan)
    *                    and the transfer phase is charged for the filtering.
    *                    A forward sink (no outgoing edge) builds nothing in
    *                    the forward pass and is left lazy there: the backward
    *                    pass starts from it unchanged and persists and counts
    *                    it in its first build job. An n-table query with one
    *                    sink so costs 2n − 1 Spark jobs.
    */
  def reduce(
      graph: JoinGraph,
      builder: FilterBuilder,
      metrics: Option[ExecMetrics] = None,
      materialize: Boolean = false,
  ): Map[String, DataFrame] = {
    val tg = TransferGraph.orient(graph)
    val base = graph.tables.map(t => t.name -> t.filtered).toMap
    val est = graph.tables.map(t => t.name -> t.estRows).toMap

    def pass(g: TransferGraph, start: Map[String, DataFrame],
             last: Boolean): Map[String, DataFrame] = {
      // name -> (keys on this table, filter) accumulated from finished sources
      val inbox = mutable.Map.empty[String, List[(Seq[String], TransferFilter)]]
        .withDefaultValue(Nil)
      val reduced = mutable.Map.empty[String, DataFrame]
      for (v <- g.order) {
        var dfv = inbox(v).reverse.foldLeft(start(v)) {
          case (df, (keys, f)) => f.applyTo(df, keys)
        }
        val out = g.outgoing(v)
        if (out.nonEmpty || (last && materialize)) {
          if (materialize) {
            dfv = dfv.persist()
            metrics.foreach(_.persisted += dfv)
          }
          val (count, filters) = builder.buildMany(
            dfv, out.map(_.fromKeys), est(v), withCount = materialize)
          if (last) for (c <- count; m <- metrics) m.reducedRows(v) = c
          out.zip(filters).foreach { case (e, f) =>
            inbox(e.to) = (e.toKeys, f) :: inbox(e.to)
          }
        }
        reduced(v) = dfv
      }
      reduced.toMap
    }

    def timed[A](block: => A): A = metrics.fold(block)(_.timeTransfer(block))

    timed {
      val forward = pass(tg, base, last = false)
      pass(tg.reversed, forward, last = true)
    }
  }
}
