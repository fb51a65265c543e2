package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** The Yannakakis baseline (paper §2.2 / §4.1): a semi-join phase over a
  * rooted join tree, executed with real semi-joins (`left_semi`).
  *
  * As in the paper's extension to arbitrary TPC-H queries, cyclic join
  * graphs are handled by breaking cycles: a BFS from the chosen root selects
  * a spanning tree and the non-tree edges are simply dropped from the
  * semi-join phase (they are still enforced in the join phase), which is why
  * Yannakakis can filter *less* than Pred-Trans on cyclic queries like Q5.
  */
object Yannakakis {

  /** A tree edge: `child` hangs under `parent`, joined on the given keys. */
  final case class TreeEdge(
      parent: String,
      parentKeys: Seq[String],
      child: String,
      childKeys: Seq[String],
  )

  /** BFS spanning tree of `graph` rooted at `root`, in discovery order.
    * If several edges connect a discovered pair, the first declared one is
    * used. Requires a connected graph.
    */
  def bfsTree(graph: JoinGraph, root: String): Seq[TreeEdge] = {
    require(graph.byName.contains(root), s"unknown root $root")
    require(graph.isConnected, "Yannakakis needs a connected join graph")
    val seen = mutable.Set(root)
    val queue = mutable.Queue(root)
    val tree = mutable.ArrayBuffer.empty[TreeEdge]
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      for (e <- graph.edgesOf(v)) {
        val w = e.other(v)
        if (!seen(w)) {
          seen += w
          queue.enqueue(w)
          tree += TreeEdge(v, e.keysOf(v), w, e.keysOf(w))
        }
      }
    }
    tree.toSeq
  }

  /** Run the semi-join phase (forward bottom-up, backward top-down) and
    * return the reduced table per vertex.
    *
    * @param root        join-tree root; the paper picks one arbitrarily and
    *                    notes performance is sensitive to the choice
    * @param materialize persist+count every reduced table so the semi-joins
    *                    actually execute inside the (timed) semi-join phase,
    *                    as in the paper's engine — required for honest
    *                    phase-breakdown measurements. Correctness tests can
    *                    leave this off and stay lazy.
    */
  def reduce(
      graph: JoinGraph,
      root: String,
      materialize: Boolean = false,
      metrics: Option[ExecMetrics] = None,
  ): Map[String, DataFrame] = {
    val tree = bfsTree(graph, root)
    val base = graph.tables.map(t => t.name -> t.filtered).toMap

    def semiJoin(df: DataFrame, keys: Seq[String], other: DataFrame,
                 otherKeys: Seq[String]): DataFrame =
      ExactFilterBuilder.build(other, otherKeys, 0L).applyTo(df, keys)

    // Materialization truncates lineage (localCheckpoint) rather than just
    // caching: semi-join results nest recursively across the two passes, and
    // keeping full lineage makes plan size — and hence planning and plan
    // stringification — grow exponentially with tree depth. The paper's
    // engine materializes each semi-join output anyway.
    def force(df: DataFrame): DataFrame =
      if (!materialize) df
      else {
        val p = df.localCheckpoint()
        metrics.foreach(_.persisted += p)
        p
      }

    def run(): Map[String, DataFrame] = {
      val childrenOf = tree.groupBy(_.parent)
      // Forward pass: children are discovered after their parent in BFS
      // order, so reverse discovery order visits every child before its
      // parent — classic bottom-up.
      val fwd = mutable.Map.empty[String, DataFrame]
      val bottomUp = (tree.map(_.child).reverse :+ root)
      for (v <- bottomUp) {
        val reduced = childrenOf.getOrElse(v, Nil).foldLeft(base(v)) { (df, e) =>
          semiJoin(df, e.parentKeys, fwd(e.child), e.childKeys)
        }
        fwd(v) = force(reduced)
      }
      // Backward pass: top-down, each child semi-joins with its (already
      // fully reduced) parent.
      val bwd = mutable.Map.empty[String, DataFrame]
      bwd(root) = fwd(root)
      for (e <- tree) { // BFS discovery order is top-down
        bwd(e.child) = force(
          semiJoin(fwd(e.child), e.childKeys, bwd(e.parent), e.parentKeys))
      }
      if (materialize) metrics.foreach { m =>
        graph.tables.foreach(t => m.reducedRows(t.name) = FilterBuilder.countRows(bwd(t.name)))
      }
      bwd.toMap
    }

    metrics.fold(run())(_.timeTransfer(run()))
  }
}
