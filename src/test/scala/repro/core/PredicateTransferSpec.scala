package repro.core

import org.apache.spark.JobCount
import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.tpch.QueryCatalog

/** The transfer phase itself: multi-hop propagation, backward pass,
  * result preservation, cyclic graphs, bloom-vs-exact containment.
  */
class PredicateTransferSpec extends SparkSpec {
  import spark.implicits._

  /** Chain a(k) — b(k,j) — c(j): predicate on a must reach c (two hops). */
  private def chain: JoinGraph = chainWhereA(col("a_k") <= 2)

  private def chainWhereA(aFilter: Column): JoinGraph = {
    val a = Seq(1L, 2L, 3L, 4L).toDF("a_k")
    val b = Seq((1L, 10L), (2L, 20L), (3L, 30L), (4L, 40L), (9L, 90L))
      .toDF("b_k", "b_j")
    val c = (1L to 100L).map(j => j * 10).toDF("c_j")
    JoinGraph(
      Seq(
        TableRef("a", a, 4L, Some(aFilter)),
        TableRef("b", b, 5L),
        TableRef("c", c, 100L)),
      Seq(
        JoinEdge("a", Seq("a_k"), "b", Seq("b_k")),
        JoinEdge("b", Seq("b_j"), "c", Seq("c_j"))))
  }

  test("forward pass propagates a predicate two hops (exact filters)") {
    val reduced = PredicateTransfer.reduce(chain, ExactFilterBuilder)
    assert(reduced("c").collect().map(_.getLong(0)).toSet == Set(10L, 20L))
  }

  test("forward pass propagates through bloom filters (superset, tiny fp)") {
    val reduced = PredicateTransfer.reduce(chain, BloomFilterBuilder())
    val kept = reduced("c").collect().map(_.getLong(0)).toSet
    assert(Set(10L, 20L).subsetOf(kept))
    assert(kept.size <= 10, s"bloom kept far too much: ${kept.size}")
  }

  test("backward pass filters the smaller tables too") {
    // b has key 9 that matches nothing in a; backward (from larger c it
    // stays, but b also gets a's filter forward) — check b is reduced to
    // the rows that join both sides.
    val reduced = PredicateTransfer.reduce(chain, ExactFilterBuilder)
    val bKept = reduced("b").collect().map(_.getLong(0)).toSet
    assert(bKept == Set(1L, 2L))
    // and 'a' keeps only rows surviving its own local filter
    assert(reduced("a").collect().map(_.getLong(0)).toSet == Set(1L, 2L))
  }

  test("backward pass reaches the smallest table (predicate on largest)") {
    val a = Seq(1L, 2L, 3L).toDF("a_k")
    val b = Seq(1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L).toDF("b_k")
    val g = JoinGraph(
      Seq(TableRef("a", a, 3L), TableRef("b", b, 8L, Some(col("b_k") === 2))),
      Seq(JoinEdge("a", Seq("a_k"), "b", Seq("b_k"))))
    val reduced = PredicateTransfer.reduce(g, ExactFilterBuilder)
    // a→b is the forward direction (a smaller); only the backward pass can
    // carry b's local predicate into a.
    assert(reduced("a").collect().map(_.getLong(0)).toSet == Set(2L))
  }

  test("exact-filter transfer removes every non-contributing tuple on an acyclic query") {
    val reduced = PredicateTransfer.reduce(chain, ExactFilterBuilder)
    // Yannakakis guarantee: every surviving row participates in the join.
    val joined = reduced("a")
      .join(reduced("b"), col("a_k") === col("b_k"))
      .join(reduced("c"), col("b_j") === col("c_j"))
    assert(reduced("a").count() == joined.select("a_k").distinct().count())
    assert(reduced("b").count() == joined.select("b_k", "b_j").distinct().count())
    assert(reduced("c").count() == joined.select("c_j").distinct().count())
  }

  test("transfer preserves the join result (exact)") {
    val g = chain
    val plain = g.byName("a").filtered
      .join(g.byName("b").df, col("a_k") === col("b_k"))
      .join(g.byName("c").df, col("b_j") === col("c_j"))
    val reduced = PredicateTransfer.reduce(g, ExactFilterBuilder)
    val pt = reduced("a")
      .join(reduced("b"), col("a_k") === col("b_k"))
      .join(reduced("c"), col("b_j") === col("c_j"))
    assert(repro.TestData.canon(pt) == repro.TestData.canon(plain))
  }

  test("transfer preserves the join result (bloom)") {
    val g = chain
    val plain = g.byName("a").filtered
      .join(g.byName("b").df, col("a_k") === col("b_k"))
      .join(g.byName("c").df, col("b_j") === col("c_j"))
    val reduced = PredicateTransfer.reduce(g, BloomFilterBuilder())
    val pt = reduced("a")
      .join(reduced("b"), col("a_k") === col("b_k"))
      .join(reduced("c"), col("b_j") === col("c_j"))
    assert(repro.TestData.canon(pt) == repro.TestData.canon(plain))
  }

  test("cyclic graphs transfer across every edge (triangle)") {
    // Triangle a—b, b—c, a—c where the a—c edge is what filters c.
    val a = Seq((1L, 100L), (2L, 200L)).toDF("a_k", "a_j")
    val b = Seq((1L, 10L), (2L, 20L), (3L, 30L)).toDF("b_k", "b_i")
    val c = Seq((10L, 100L), (20L, 200L), (30L, 300L), (40L, 400L))
      .toDF("c_i", "c_j")
    val g = JoinGraph(
      Seq(
        TableRef("a", a, 2L, Some(col("a_k") === 1)),
        TableRef("b", b, 3L),
        TableRef("c", c, 4L)),
      Seq(
        JoinEdge("a", Seq("a_k"), "b", Seq("b_k")),
        JoinEdge("b", Seq("b_i"), "c", Seq("c_i")),
        JoinEdge("a", Seq("a_j"), "c", Seq("c_j"))))
    val reduced = PredicateTransfer.reduce(g, ExactFilterBuilder)
    // both paths (a→b→c and a→c) constrain c to the single consistent row
    assert(reduced("c").collect().map(_.getLong(0)).toSet == Set(10L))
  }

  test("bloom-reduced tables are supersets of exact-reduced tables") {
    val g = chain
    val exact = PredicateTransfer.reduce(g, ExactFilterBuilder)
    val bloom = PredicateTransfer.reduce(g, BloomFilterBuilder())
    for (t <- g.tables.map(_.name)) {
      val e = exact(t).collect().map(_.toString).toSet
      val b = bloom(t).collect().map(_.toString).toSet
      assert(e.subsetOf(b), s"table $t: exact ⊄ bloom")
    }
  }

  test("a node with multiple incoming filters applies them all") {
    // d joins both a and b, each with a local predicate; d must shrink to
    // the intersection.
    val a = Seq(1L, 2L).toDF("a_k")
    val b = Seq(2L, 3L).toDF("b_k")
    val d = (1L to 10L).toDF("d_k")
    val g = JoinGraph(
      Seq(TableRef("a", a, 2L), TableRef("b", b, 2L), TableRef("d", d, 10L)),
      Seq(JoinEdge("a", Seq("a_k"), "d", Seq("d_k")),
          JoinEdge("b", Seq("b_k"), "d", Seq("d_k"))))
    val reduced = PredicateTransfer.reduce(g, ExactFilterBuilder)
    assert(reduced("d").collect().map(_.getLong(0)).toSet == Set(2L))
  }

  test("single-table graph is a no-op apart from the local filter") {
    val g = JoinGraph(
      Seq(TableRef("a", Seq(1L, 2L, 3L).toDF("a_k"), 3L, Some(col("a_k") < 3))), Nil)
    val reduced = PredicateTransfer.reduce(g, ExactFilterBuilder)
    assert(reduced("a").count() == 2L)
  }

  test("a materialized reduction runs 2n - 1 Spark jobs") {
    val t = TestData.tpch
    val cases = Seq(
      ("chain", chain, 5),
      ("Q12", QueryCatalog.byName("Q12").build(t).graph, 3),
      ("Q5", QueryCatalog.byName("Q5").build(t).graph, 11))
    for ((name, g, expected) <- cases) {
      val m = new ExecMetrics
      val (_, jobs) = JobCount.of(spark.sparkContext)(
        PredicateTransfer.reduce(g, BloomFilterBuilder(), Some(m), materialize = true))
      m.release()
      assert(expected == 2 * g.tables.size - 1, name)
      assert(jobs == expected, name)
    }
  }

  test("materialized and lazy reductions keep the same rows, and reducedRows counts them") {
    for (q <- Seq("Q3", "Q5", "Q12", "Q14")) {
      val g = QueryCatalog.byName(q).build(TestData.tpch).graph
      val lazily = PredicateTransfer.reduce(g, BloomFilterBuilder())
      val m = new ExecMetrics
      val materialized = PredicateTransfer.reduce(g, BloomFilterBuilder(), Some(m),
        materialize = true)
      try for (t <- g.tables.map(_.name)) {
        val rows = TestData.canon(lazily(t))
        assert(TestData.canon(materialized(t)) == rows, s"$q/$t")
        assert(m.reducedRows(t) == rows.size.toLong, s"$q/$t")
      } finally m.release()
    }
  }

  test("a vertex its local filter empties counts 0 and empties every vertex") {
    val m = new ExecMetrics
    val reduced = PredicateTransfer.reduce(chainWhereA(col("a_k") > 100),
      BloomFilterBuilder(), Some(m), materialize = true)
    try {
      assert(m.reducedRows.toMap == Map("a" -> 0L, "b" -> 0L, "c" -> 0L))
      for ((t, df) <- reduced) assert(df.count() == 0L, t)
    } finally m.release()
  }

  test("transfer time lands in metrics.transferNanos") {
    val m = new ExecMetrics
    PredicateTransfer.reduce(chain, BloomFilterBuilder(), Some(m))
    assert(m.transferNanos > 0L)
    assert(m.joinNanos == 0L)
  }
}
