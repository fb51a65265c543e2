package repro.catalyst

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate.BloomFilterAggregate
import org.apache.spark.sql.catalyst.optimizer.PushDownPredicates
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import org.scalatest.BeforeAndAfterEach
import repro.{Oracle, SparkSpec, TestData}
import repro.tpch.{QueryCatalog, TpchLite}
import scala.collection.mutable

/** The Catalyst Bloom-transfer rule: gated, correct, bounded, fail-closed. */
class PredicateTransferRuleSpec extends SparkSpec with BeforeAndAfterEach with PredicateHelper {

  private lazy val t = TestData.tpch

  override def beforeAll(): Unit = {
    super.beforeAll()
    PredicateTransferExtensions.install(spark)
  }

  override def afterEach(): Unit = {
    spark.conf.set(PredicateTransferRule.EnabledKey, "false")
    super.afterEach()
  }

  private def enable(): Unit =
    spark.conf.set(PredicateTransferRule.EnabledKey, "true")

  /** Q5 written directly against the DataFrame API (the shape a user query
    * takes before the rule sees it).
    */
  private def q5Df: DataFrame =
    t.customer.join(t.orders, col("c_custkey") === col("o_custkey"))
      .join(t.lineitem, col("l_orderkey") === col("o_orderkey"))
      .join(t.supplier,
        col("l_suppkey") === col("s_suppkey") && col("c_nationkey") === col("s_nationkey"))
      .join(t.nation, col("s_nationkey") === col("n_nationkey"))
      .join(t.region, col("n_regionkey") === col("r_regionkey"))
      .filter(col("r_name") === "ASIA" &&
        col("o_orderdate") >= "1994-01-01" && col("o_orderdate") < "1995-01-01")
      .groupBy("n_name")
      .agg(sum((col("l_extendedprice") * (lit(1) - col("l_discount")))
        .cast("decimal(18,4)")).as("revenue"))

  private def q3Df: DataFrame =
    t.customer.filter(col("c_mktsegment") === "BUILDING")
      .join(t.orders.filter(col("o_orderdate") < "1995-03-15"),
        col("c_custkey") === col("o_custkey"))
      .join(t.lineitem.filter(col("l_shipdate") > "1995-03-15"),
        col("o_orderkey") === col("l_orderkey"))
      .groupBy("l_orderkey")
      .agg(sum((col("l_extendedprice") * (lit(1) - col("l_discount")))
        .cast("decimal(18,4)")).as("revenue"))

  private def optimizedPlan(df: DataFrame): LogicalPlan = df.queryExecution.optimizedPlan

  private def isRuleFilter(e: Expression): Boolean = e match {
    case BloomFilterMightContain(s: ScalarSubquery, _) =>
      s.plan.output.exists(_.name == PredicateTransferRule.Marker)
    // After the pre-CBO batch, MergeScalarSubqueries may fold the rule's
    // subqueries over one plan into one, read back by field.
    case BloomFilterMightContain(field @ GetStructField(_: ScalarSubquery, _, _), _) =>
      field.extractFieldName == PredicateTransferRule.Marker
    case _ => false
  }

  /** The rule's `might_contain` filters in `plan`, not counting those nested
    * in filter subqueries.
    */
  private def ruleFilters(plan: LogicalPlan): Seq[BloomFilterMightContain] =
    plan.flatMap(_.expressions.flatMap(_.collect {
      case m: BloomFilterMightContain if isRuleFilter(m) => m
    }))

  /** Every Bloom subquery reachable from `plan`, nested ones included,
    * distinct after canonicalization.
    */
  private def distinctBloomSubqueries(plan: LogicalPlan): Set[LogicalPlan] = {
    val seen = mutable.Set.empty[LogicalPlan]
    def visit(p: LogicalPlan): Unit = ruleFilters(p).foreach { m =>
      val sub = m.bloomFilterExpression.collectFirst { case s: ScalarSubquery => s.plan }.get
      if (seen.add(sub.canonicalized)) visit(sub)
    }
    visit(plan)
    seen.toSet
  }

  /** Join edges of every maximal inner-join tree in `plan` (column-pruning
    * projections between joins included): the relation pairs linked by at
    * least one equality of two columns, either of them possibly cast.
    */
  private def joinEdges(plan: LogicalPlan): Int = plan match {
    case j @ Join(_, _, Inner, _, _) =>
      def flat(p: LogicalPlan): (Seq[LogicalPlan], Seq[Expression]) = p match {
        case Join(l, r, Inner, cond, _) =>
          val (lr, lc) = flat(l); val (rr, rc) = flat(r)
          (lr ++ rr, lc ++ rc ++ cond.toSeq.flatMap(splitConjunctivePredicates))
        case Project(list, child: Join) if list.forall(_.isInstanceOf[Attribute]) => flat(child)
        case other => (Seq(other), Nil)
      }
      val (relations, conds) = flat(j)
      def relOf(e: Expression): Option[Int] = e match {
        case a: Attribute => Some(relations.indexWhere(_.outputSet.contains(a))).filter(_ >= 0)
        case Cast(a: Attribute, _, _, _) => relOf(a)
        case _                           => None
      }
      val pairs = conds.collect { case EqualTo(l, r) => (relOf(l), relOf(r)) }.collect {
        case (Some(a), Some(b)) if a != b => Set(a, b)
      }.toSet
      pairs.size + relations.map(joinEdges).sum
    case other => other.children.map(joinEdges).sum
  }

  /** The 13 TPC-H-lite SQL texts run over temp views of the test dataset. */
  private lazy val sqlTexts = {
    t.byName.foreach { case (name, df) => df.createOrReplaceTempView(name) }
    QueryCatalog.all.map(q => q.name -> q.oracleSql)
  }

  /** A second session on the shared SparkContext with the rule injected by
    * [[PredicateTransferExtensions]], the class `spark.sql.extensions` names:
    * the rule then runs in the pre-CBO batch, before `NormalizeFloatingNumbers`
    * and the subquery rewrites. (That conf is read once per SparkContext, so
    * the session takes the class through `withExtensions`.) It holds temp
    * views of the cached TPC-H-lite tables.
    */
  private lazy val extensionSession: SparkSession = {
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    val ext =
      try SparkSession.builder().withExtensions(new PredicateTransferExtensions).getOrCreate()
      finally {
        SparkSession.setDefaultSession(spark)
        SparkSession.setActiveSession(spark)
      }
    assert(ext ne spark)
    // The shared cache manager serves the plans `t` cached (deterministic in
    // sf); uncached, the generator's rand() makes every relation
    // non-deterministic and the rule leaves the tree alone.
    TpchLite(ext, t.sf).cached().byName.foreach { case (name, df) => df.createOrReplaceTempView(name) }
    ext
  }

  /** `run` with the rule off, then on, in `session`. */
  private def offAndOn[A](session: SparkSession)(run: => A): (A, A) =
    try {
      session.conf.set(PredicateTransferRule.EnabledKey, "false")
      val off = run
      session.conf.set(PredicateTransferRule.EnabledKey, "true")
      (off, run)
    } finally session.conf.set(PredicateTransferRule.EnabledKey, "false")

  private def planAndRows(df: DataFrame): (LogicalPlan, Seq[Seq[String]]) =
    (optimizedPlan(df), TestData.canon(df))

  /** Two LocalRelations joined on one BIGINT key each. */
  private def localJoin(leftStreaming: Boolean = false): Join = {
    val (a, b) = (AttributeReference("a", LongType)(), AttributeReference("b", LongType)())
    Join(LocalRelation(Seq(a), Nil, isStreaming = leftStreaming), LocalRelation(Seq(b)),
      Inner, Some(EqualTo(a, b)), JoinHint.NONE)
  }

  /** The enabled rule leaves `unsafe` exactly as it is, while it rewrites
    * `safe`, the same query without the reason to skip.
    */
  private def assertFailsClosed(unsafe: LogicalPlan, safe: LogicalPlan): Unit = {
    enable()
    val rewritten = PredicateTransferRule(unsafe)
    assert(rewritten.fastEquals(unsafe), s"unsafe tree was rewritten:\n$rewritten")
    assert(ruleFilters(PredicateTransferRule(safe)).nonEmpty, "safe control was not rewritten")
  }

  test("rule is a no-op while disabled") {
    val plan = optimizedPlan(q5Df)
    assert(ruleFilters(plan).isEmpty, "disabled rule must not inject filters")
  }

  test("enabled rule injects Bloom filters in Q5") {
    enable()
    val plan = optimizedPlan(q5Df)
    // Q5's six relations are linked by six edges: one filter per step and pass.
    assert(ruleFilters(plan).size == 12, s"expected 12 Bloom filters in:\n$plan")
    assert(plan.toString.contains("might_contain"))
    assert(plan.toString.contains(PredicateTransferRule.Marker))
  }

  test("rewritten Q5 matches the DuckDB oracle") {
    enable()
    Oracle.assertEquivalent(
      q5Df,
      """SELECT n_name,
        |  SUM(CAST(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)) AS DECIMAL(18,4))) AS revenue
        |FROM customer, orders, lineitem, supplier, nation, region
        |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
        |  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
        |  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
        |  AND r_name = 'ASIA'
        |  AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01'
        |GROUP BY n_name""".stripMargin,
      t.oracleTables(Seq("customer", "orders", "lineitem",
        "supplier", "nation", "region")): _*)
  }

  test("rewritten Q3 equals the unrewritten result") {
    val plain = TestData.canon(q3Df)
    enable()
    assert(TestData.canon(q3Df) == plain)
  }

  test("rewritten plan result is stable for a cyclic 3-table query") {
    val df = t.customer
      .join(t.orders, col("c_custkey") === col("o_custkey"))
      .join(t.supplier, col("c_nationkey") === col("s_nationkey"))
      .filter(col("o_orderdate") < "1992-02-01" && col("s_suppkey") <= 10)
      .agg(count(lit(1)).as("n"))
    val plain = df.head.getLong(0)
    enable()
    assert(df.head.getLong(0) == plain)
  }

  test("rule is idempotent under the fixed-point optimizer batch") {
    enable()
    // Q3 is a chain of three relations: two edges, so one forward and one
    // backward filter each. The count must be exactly that (the fixed-point
    // batch did not keep adding filters) and stable across compilations.
    val c1 = ruleFilters(optimizedPlan(q3Df)).size
    val c2 = ruleFilters(optimizedPlan(q3Df)).size
    assert(c1 == 4 && c1 == c2, s"unstable or runaway rewrite: $c1 vs $c2")
  }

  test("two-table join is rewritten and stays correct") {
    enable()
    val df = t.orders.join(t.customer, col("o_custkey") === col("c_custkey"))
      .filter(col("c_mktsegment") === "BUILDING")
      .agg(count(lit(1)).as("n"))
    val n = df.head.getLong(0)
    spark.conf.set(PredicateTransferRule.EnabledKey, "false")
    assert(df.head.getLong(0) == n)
  }

  test("a source left empty by its filter empties the join") {
    enable()
    // An empty build side yields a null Bloom filter, which must reject
    // every probe row rather than fail.
    val df = t.orders.filter(col("o_orderdate") < "1900-01-01")
      .join(t.customer, col("o_custkey") === col("c_custkey"))
      .join(t.lineitem, col("l_orderkey") === col("o_orderkey"))
    assert(ruleFilters(optimizedPlan(df)).size == 4)
    assert(df.count() == 0)
  }

  test("non-equi-only join trees are left untouched") {
    enable()
    val df = t.nation.join(t.region, col("n_regionkey") < col("r_regionkey"))
    assert(ruleFilters(optimizedPlan(df)).isEmpty)
  }

  test("outer joins are not flattened into the transfer graph") {
    enable()
    val df = t.nation.join(t.region,
      col("n_regionkey") === col("r_regionkey"), "left_outer")
    assert(ruleFilters(optimizedPlan(df)).isEmpty)
  }

  test("install is idempotent on a shared session") {
    PredicateTransferExtensions.install(spark)
    PredicateTransferExtensions.install(spark)
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    assert(classic.experimental.extraOptimizations
      .count(_ == PredicateTransferRule) == 1)
  }

  test("fails closed on a non-deterministic relation") {
    def df(orders: DataFrame) = orders.join(t.customer, col("o_custkey") === col("c_custkey"))
    assertFailsClosed(
      optimizedPlan(df(t.orders.filter(rand(7) < 0.5))),
      optimizedPlan(df(t.orders.filter(col("o_totalprice") < 50000))))
  }

  test("fails closed on a streaming relation") {
    assertFailsClosed(localJoin(leftStreaming = true), localJoin())
  }

  test("fails closed on a correlated subquery plan") {
    assertFailsClosed(Subquery(localJoin(), correlated = true),
      Subquery(localJoin(), correlated = false))
  }

  test("fails closed on a join carrying a hint") {
    def df(customer: DataFrame) = t.orders.join(customer, col("o_custkey") === col("c_custkey"))
      .join(t.nation, col("c_nationkey") === col("n_nationkey"))
    assertFailsClosed(optimizedPlan(df(broadcast(t.customer))), optimizedPlan(df(t.customer)))
  }

  test("fails closed on an already rewritten tree") {
    val off = optimizedPlan(q3Df)
    enable()
    val once = PredicateTransferRule(off)
    assert(ruleFilters(once).size == 4)
    assertFailsClosed(once, off)
    // Also once the optimizer has pushed the filters below the projections
    // on top of the relations and merged them into the filters there.
    val pushed = Iterator.iterate(once)(PushDownPredicates(_)).sliding(2)
      .collectFirst { case Seq(a, b) if a == b => a }.get
    assert(pushed != once && ruleFilters(pushed).size == 4)
    assertFailsClosed(pushed, off)
  }

  test("Bloom filters of InjectRuntimeFilter are not taken for the rule's own") {
    val join = localJoin()
    val (a, b) = (join.left.output.head, join.right.output.head)
    val bloom = Alias(new BloomFilterAggregate(new XxHash64(Seq(b))).toAggregateExpression(),
      "bloomFilter")()
    val runtimeFilter = BloomFilterMightContain(
      ScalarSubquery(Aggregate(Nil, Seq(bloom), join.right)), new XxHash64(Seq(a)))
    enable()
    val rewritten = PredicateTransferRule(join.copy(left = Filter(runtimeFilter, join.left)))
    assert(ruleFilters(rewritten).size == 2)
  }

  test("a mixed INT/BIGINT edge gives the same rows with the rule on and off") {
    def df = spark.range(0, 2000).select(col("id").cast("int").as("ik"), (col("id") % 7).as("iv"))
      .join(spark.range(0, 2000, 3).filter(col("id") < 900).select(col("id").as("lk")),
        col("ik") === col("lk"))
    val plain = TestData.canon(df)
    assert(plain.size == 300)
    enable()
    assert(ruleFilters(optimizedPlan(df)).size == 2, "the INT = BIGINT edge was not used")
    assert(TestData.canon(df) == plain)
  }

  test("the spark.sql.extensions entry point transfers each join edge twice, with rule-off rows") {
    val ext = extensionSession
    for ((name, sql) <- sqlTexts) {
      val ((off, plain), (on, rows)) = offAndOn(ext)(planAndRows(ext.sql(sql)))
      val edges = joinEdges(off)
      assert(ruleFilters(on).size == 2 * edges,
        s"$name: ${ruleFilters(on).size} filters for $edges join edges in:\n$on")
      assert(rows == plain, s"$name: rows differ with the rule on")
    }
  }

  test("floating-point join keys are not transferred, so 0.0 still joins -0.0") {
    for (session <- Seq(spark, extensionSession)) {
      import session.implicits._
      def df = Seq((0.0, 1), (-0.0, 2), (1.5, 3)).toDF("x", "xv")
        .join(Seq((-0.0, 4), (0.0, 5), (2.5, 6)).toDF("y", "yv"), col("x") === col("y"))
      val ((_, plain), (on, rows)) = offAndOn(session)(planAndRows(df))
      assert(plain.size == 4)
      assert(ruleFilters(on).isEmpty, s"a floating-point key was transferred in:\n$on")
      assert(rows == plain)
    }
  }

  test("all 13 SQL texts give the same rows with the rule on and off") {
    for ((name, sql) <- sqlTexts) {
      spark.conf.set(PredicateTransferRule.EnabledKey, "false")
      val plain = TestData.canon(spark.sql(sql))
      enable()
      val on = spark.sql(sql)
      assert(ruleFilters(optimizedPlan(on)).nonEmpty, s"$name: rule injected no filter")
      assert(TestData.canon(on) == plain, s"$name: rows differ with the rule on")
    }
  }

  test("rule-on plans keep the rule-off scans and transfer each join edge twice") {
    for ((name, sql) <- sqlTexts) {
      spark.conf.set(PredicateTransferRule.EnabledKey, "false")
      val off = optimizedPlan(spark.sql(sql))
      enable()
      val on = optimizedPlan(spark.sql(sql))
      assert(on.collectLeaves().size == off.collectLeaves().size,
        s"$name: main plan scans ${on.collectLeaves().size} leaves, " +
          s"rule off ${off.collectLeaves().size}")
      val subqueries = distinctBloomSubqueries(on).size
      val edges = joinEdges(off)
      assert(subqueries <= 2 * edges, s"$name: $subqueries Bloom subqueries for $edges join edges")
      // Every edge of every join tree transfers once per pass, also where a
      // decorrelated subquery nests a join tree inside a relation.
      assert(ruleFilters(on).size == 2 * edges,
        s"$name: ${ruleFilters(on).size} filters in the main plan for $edges join edges")
    }
  }
}
