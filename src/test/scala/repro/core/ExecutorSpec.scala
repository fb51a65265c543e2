package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}

/** Strategy dispatch and the timed/metric run plumbing. */
class ExecutorSpec extends SparkSpec {
  import spark.implicits._

  private def tiny = {
    val a = Seq(1L, 2L, 3L, 4L).toDF("a_k")
    val b = Seq((1L, 10L), (2L, 20L), (3L, 30L), (9L, 90L)).toDF("b_k", "b_j")
    val c = Seq(10L, 20L, 99L).toDF("c_j")
    JoinQuery(
      JoinGraph(
        Seq(TableRef("a", a, 4L, Some(col("a_k") <= 2)),
            TableRef("b", b, 4L),
            TableRef("c", c, 3L)),
        Seq(JoinEdge("a", Seq("a_k"), "b", Seq("b_k")),
            JoinEdge("b", Seq("b_j"), "c", Seq("c_j")))),
      joinOrder = Seq("b", "a", "c"))
  }

  test("all four strategies return identical results") {
    val base = Executor.run(tiny, Strategy.NoPredTrans)
    for (s <- Strategy.all.tail)
      TestData.assertSameRows(Executor.run(tiny, s), base, s.name)
  }

  test("runTimed produces phase timings and the result rows") {
    for (s <- Strategy.all) {
      val (rows, m) = Executor.runTimed(tiny, s)
      assert(rows.length == 2, s.name) // (1,10) and (2,20)
      assert(m.joinNanos > 0L, s.name)
      assert(m.resultRows == 2L, s.name)
      if (s == Strategy.NoPredTrans) assert(m.transferNanos == 0L)
      else assert(m.transferNanos > 0L, s.name)
    }
  }

  test("runTimed Pred-Trans records reduced table sizes") {
    val (_, m) = Executor.runTimed(tiny, Strategy.PredTrans)
    assert(m.reducedRows.keySet == Set("a", "b", "c"))
    // a is cut by its local filter; b and c are cut by transfer (bloom may
    // keep the odd false positive on these micro tables)
    assert(m.reducedRows("a") == 2L)
    assert(m.reducedRows("b") <= 3L)
    assert(m.reducedRows("c") <= 3L)
  }

  test("runJoinMetrics records HT/PR for every join step") {
    for (s <- Strategy.all) {
      val m = Executor.runJoinMetrics(tiny, s)
      assert(m.steps.size == 2, s.name)
      assert(m.steps.map(_.buildTable) == Seq("a", "c"), s.name)
    }
  }

  test("Pred-Trans join inputs are no larger than No-Pred-Trans join inputs") {
    val npt = Executor.runJoinMetrics(tiny, Strategy.NoPredTrans)
    val pt = Executor.runJoinMetrics(tiny, Strategy.PredTrans)
    for ((a, b) <- pt.steps.zip(npt.steps)) {
      assert(a.buildRows <= b.buildRows)
      assert(a.probeRows <= b.probeRows)
    }
  }

  test("yannakakisRoot option changes the tree root but not the result") {
    val base = Executor.run(tiny, Strategy.NoPredTrans)
    for (root <- Seq("a", "b", "c")) {
      val df = Executor.execute(tiny, Strategy.Yannakakis,
        ExecOpts(yannakakisRoot = Some(root)))
      TestData.assertSameRows(df, base, s"root=$root")
    }
  }

  test("floating-point join keys: every strategy keeps 0.0 = -0.0 and NaN = NaN matches") {
    val otherNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    val a = Seq((1L, 0.0), (2L, Double.NaN), (3L, 1.5)).toDF("a_id", "a_x")
    val b = Seq((10L, -0.0), (20L, otherNaN), (30L, 2.5), (40L, -0.0)).toDF("b_id", "b_x")
    val q = JoinQuery(
      JoinGraph(Seq(TableRef("a", a, 3L), TableRef("b", b, 4L)),
        Seq(JoinEdge("a", Seq("a_x"), "b", Seq("b_x")))),
      joinOrder = Seq("b", "a"))
    val base = Executor.run(q, Strategy.NoPredTrans)
    assert(base.count() == 3L)
    for (s <- Strategy.all.tail) {
      TestData.assertSameRows(Executor.run(q, s), base, s.name)
      val (rows, _) = Executor.runTimed(q, s)
      assert(rows.length == 3, s.name)
    }
  }

  test("Strategy.byName round-trips and rejects junk") {
    for (s <- Strategy.all) assert(Strategy.byName(s.name) == s)
    assertThrows[IllegalArgumentException](Strategy.byName("nope"))
  }

  test("ExecMetrics timing helpers accumulate") {
    val m = new ExecMetrics
    m.timeTransfer { Thread.sleep(2) }
    m.timeJoin { Thread.sleep(2) }
    assert(m.transferMillis > 0 && m.joinMillis > 0)
    assert(m.totalMillis >= m.transferMillis)
  }
}
