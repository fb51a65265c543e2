package repro.catalyst

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate.BloomFilterAggregate
import org.apache.spark.sql.catalyst.optimizer.ColumnPruning
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.catalyst.util.UnsafeRowUtils
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._
import org.apache.spark.util.sketch.BloomFilter

/** Predicate transfer as a Catalyst optimizer rule — the paper's Bloom-filter
  * instantiation (§3.2), built from the pieces Spark's own
  * `InjectRuntimeFilter` uses.
  *
  * The rule finds each maximal tree of inner joins (column-pruning projections
  * between them included), flattens it into a join graph (relations = the
  * subplans below the tree, edges = attribute-equality conjuncts between two
  * relations whose keys hash alike: integral keys, widened to BIGINT, and
  * other types with binary equality, so no floating-point keys or strings
  * under a non-binary collation), orients every edge from the smaller to the
  * bigger relation by plan statistics, and runs one forward and one backward
  * pass over it. Each transfer step `u → v` adds one filter on `v`:
  *
  * {{{
  * Filter(might_contain(
  *          scalar-subquery(Aggregate(Nil, bloom_filter_agg(xxhash64(keys_u)), reduced_u)),
  *          xxhash64(keys_v)),
  *        v)
  * }}}
  *
  * where `reduced_u` is `u` under the filters it received earlier. The join
  * tree keeps its shape, conditions and leaves; only filters are added, so
  * the rewrite is correct for inner equi-joins (a Bloom filter has no false
  * negatives, and a row whose key matches no partner cannot reach an
  * inner-join result). Filters nest each other's subqueries as expressions,
  * not as plan copies, and identical subqueries canonicalize the same, so
  * subquery reuse runs each one once per query.
  *
  * Every filter is sized from the row count of the source relation's base
  * leaves at [[Fpp]] and capped like Spark's runtime Bloom filters. Join
  * trees the rule cannot prove safe are left as they are: a relation that is
  * non-deterministic (it would be evaluated once in the subquery and again
  * in the main plan) or streaming, a join carrying a hint, a tree already
  * rewritten, or the plan of a correlated subquery (as `InjectRuntimeFilter`
  * skips it). The precise (semi-join) instantiation lives in the library
  * (`ExactFilterBuilder`, Yannakakis).
  *
  * Gated off by default; enable per session with
  * `SET spark.repro.predicateTransfer.enabled=true`. Install via
  * [[PredicateTransferExtensions]] (`spark.sql.extensions` or its `install`);
  * either runs the rule after the fixed-point operator batches.
  */
object PredicateTransferRule extends Rule[LogicalPlan] with PredicateHelper {

  /** Session conf key gating the rewrite (default: disabled). */
  val EnabledKey = "spark.repro.predicateTransfer.enabled"

  /** Name of the Bloom aggregate in every filter subquery this rule injects.
    * It tells the rule's filters apart from `InjectRuntimeFilter`'s and keeps
    * the rewrite idempotent under the optimizer's fixed-point batch.
    */
  val Marker = "__pt_bloom"

  /** Target false-positive rate of every injected filter. */
  val Fpp = 0.01

  override def apply(plan: LogicalPlan): LogicalPlan = plan match {
    case _ if conf.getConfString(EnabledKey, "false") != "true" => plan
    // A correlated subquery is decorrelated into the outer plan later and
    // transferred there; its outer references cannot enter a filter subquery.
    case s: Subquery if s.correlated => plan
    case _ => transfer(plan)
  }

  /** Rewrite every maximal inner-join tree, top down. A join tree inside one
    * of its relations is a tree of its own, visited after the outer one.
    */
  private def transfer(plan: LogicalPlan): LogicalPlan = plan match {
    case root @ Join(_, _, Inner, _, _) =>
      val (relations, conjuncts, hinted) = flatten(root)
      val unsafe = hinted ||
        relations.exists(r => r.isStreaming || !r.deterministic || transferred(r))
      val filters =
        if (unsafe) relations.map(_ => Nil) else transferSteps(relations.toIndexedSeq, conjuncts)
      val leaves = relations.zip(filters).map { case (r, fs) =>
        fs.foldLeft(transfer(r))((p, f) => Filter(f, p))
      }.iterator
      def rebuild(p: LogicalPlan): LogicalPlan =
        treeChildren(p).fold(leaves.next())(cs => p.withNewChildren(cs.map(rebuild)))
      val rewritten = rebuild(root)
      if (filters.exists(_.nonEmpty)) {
        val perRelation =
          relations.zip(filters).map { case (r, fs) => s"${describe(r)}=${fs.size}" }
        val subqueryNodes = filters.flatten.flatMap(_.children).collect {
          case s: ScalarSubquery => nodeCount(s.plan)
        }.sum
        logInfo(s"predicate transfer: ${relations.size} relations, filters per relation " +
          perRelation.mkString("[", ", ", "]") +
          s", plan nodes ${nodeCount(root)} -> ${nodeCount(rewritten)}" +
          s" (+$subqueryNodes in filter subqueries)")
      }
      rewritten
    case other => other.mapChildren(transfer)
  }

  /** The children of `p` inside the same inner-join tree: a join's inputs,
    * or the join under a column-pruning `Project`. None at a relation.
    */
  private def treeChildren(p: LogicalPlan): Option[Seq[LogicalPlan]] = p match {
    case Join(l, r, Inner, _, _) => Some(Seq(l, r))
    case Project(list, j @ Join(_, _, Inner, _, _)) if list.forall(_.isInstanceOf[Attribute]) =>
      Some(Seq(j))
    case _ => None
  }

  /** Relations, join conjuncts, and whether any join carries a hint. */
  private def flatten(p: LogicalPlan): (Seq[LogicalPlan], Seq[Expression], Boolean) =
    treeChildren(p) match {
      case None => (Seq(p), Nil, false)
      case Some(children) =>
        val parts = children.map(flatten)
        val (conds, hinted) = p match {
          case j: Join =>
            (j.condition.toSeq.flatMap(splitConjunctivePredicates), j.hint != JoinHint.NONE)
          case _ => (Nil, false)
        }
        (parts.flatMap(_._1), parts.flatMap(_._2) ++ conds, hinted || parts.exists(_._3))
    }

  /** Whether relation `r` holds a filter this rule injected, wherever the
    * optimizer has since moved it inside `r` (below a projection or an
    * aggregate, into a nested join), so a second run of the rule leaves the
    * tree alone. `InjectRuntimeFilter`'s filters have no [[Marker]] and do
    * not count.
    */
  private def transferred(r: LogicalPlan): Boolean =
    r.exists(_.expressions.exists(_.exists {
      case BloomFilterMightContain(s: ScalarSubquery, _) => s.plan.output.exists(_.name == Marker)
      case _                                             => false
    }))

  private def nodeCount(p: LogicalPlan): Int = p.collect { case n => n }.size

  /** A short name for a relation in the log: its first column. */
  private def describe(r: LogicalPlan): String =
    r.output.headOption.fold(r.nodeName)(_.name).take(24)

  /** An oriented transfer step: `to` keeps only rows whose `toKeys` may
    * appear among the `fromKeys` of the (already reduced) `from` relation.
    */
  private final case class Edge(from: Int, fromKeys: Seq[Attribute],
                                to: Int, toKeys: Seq[Attribute]) {
    def reverse: Edge = Edge(to, toKeys, from, fromKeys)
  }

  private val Integral: Set[DataType] = Set(ByteType, ShortType, IntegerType, LongType)

  /** The key attribute of one side of an equality: the attribute itself, or
    * an attribute under an integral widening cast (INT = BIGINT joins), of a
    * type whose equal values always hash alike.
    */
  private def keyAttr(e: Expression): Option[Attribute] = e match {
    case a: Attribute if hashable(a.dataType) => Some(a)
    case Cast(a: Attribute, to, _, _)
        if Integral(a.dataType) && Integral(to) && to.defaultSize >= a.dataType.defaultSize =>
      Some(a)
    case _ => None
  }

  /** Whether equal keys of type `dt` always hash alike. Not so for floating
    * point (0.0 = -0.0 but they hash apart, and the rule may run before
    * `NormalizeFloatingNumbers`), strings under a non-binary collation, or
    * the complex types that may hold either.
    */
  private def hashable(dt: DataType): Boolean = dt match {
    case s: StringType => UnsafeRowUtils.isBinaryStable(s)
    case _: DecimalType | DateType | TimestampType | TimestampNTZType | BinaryType => true
    case _ => Integral(dt)
  }

  /** The integral widening of `TransferFilter.canonKeys`, so both sides of an
    * edge hash alike: an INT key and a BIGINT key give the same `xxhash64`.
    */
  private def canonKey(k: Attribute): Expression =
    if (Integral(k.dataType) && k.dataType != LongType) Cast(k, LongType) else k

  private def keyHash(keys: Seq[Attribute]): Expression = new XxHash64(keys.map(canonKey))

  /** Bloom aggregate over `hash` sized for the keys of `source`: the row count
    * of its base leaves (a `Filter`'s statistics carry none), or Spark's
    * default expected item count where no leaf reports one, at [[Fpp]],
    * capped like Spark's runtime Bloom filters.
    */
  private def bloomAggregate(hash: Expression, source: LogicalPlan): BloomFilterAggregate = {
    val rows = source.collectLeaves().flatMap(_.stats.rowCount)
    val expected =
      if (rows.isEmpty) BigInt(conf.getConf(SQLConf.RUNTIME_BLOOM_FILTER_EXPECTED_NUM_ITEMS))
      else rows.sum
    val items = expected.min(conf.getConf(SQLConf.RUNTIME_BLOOM_FILTER_MAX_NUM_ITEMS)).max(1).toLong
    val bits = math.min(BloomFilter.optimalNumOfBits(items, Fpp),
                        conf.getConf(SQLConf.RUNTIME_BLOOM_FILTER_MAX_NUM_BITS))
    new BloomFilterAggregate(hash, Literal(items), Literal(bits))
  }

  /** The filter injected by step `e`: `e.to`'s keys probed against a Bloom
    * filter of `e.from`'s keys, built by a subquery over `reducedFrom`.
    */
  private def bloomFilter(e: Edge, source: LogicalPlan, reducedFrom: LogicalPlan): Expression = {
    val agg = Alias(bloomAggregate(keyHash(e.fromKeys), source).toAggregateExpression(), Marker)()
    val subquery = ScalarSubquery(ColumnPruning(Aggregate(Nil, Seq(agg), reducedFrom)))
    BloomFilterMightContain(subquery, keyHash(e.toKeys))
  }

  /** The filters each relation receives, in application order. */
  private def transferSteps(relations: IndexedSeq[LogicalPlan],
                            conjuncts: Seq[Expression]): Seq[Seq[Expression]] = {
    val relOf: Map[ExprId, Int] = relations.zipWithIndex.flatMap {
      case (r, i) => r.output.map(_.exprId -> i)
    }.toMap

    // Equi-join conjuncts between two distinct relations whose keys hash
    // alike, grouped per relation pair (composite keys become one edge).
    val keyPairs = conjuncts.flatMap {
      case EqualTo(l, r) =>
        for {
          a <- keyAttr(l); b <- keyAttr(r)
          ra <- relOf.get(a.exprId); rb <- relOf.get(b.exprId)
          if ra != rb && canonKey(a).dataType == canonKey(b).dataType
        } yield (ra, a, rb, b)
      case _ => None
    }

    // Orient smaller → bigger (ties on index), the paper's heuristic; the
    // size order is then a valid topological order of the transfer DAG.
    val order = relations.indices.sortBy(i => (relations(i).stats.sizeInBytes, i))
    val pos = order.zipWithIndex.toMap
    val edges = keyPairs
      .map { case (ri, a, rj, b) => if (pos(ri) <= pos(rj)) (ri, a, rj, b) else (rj, b, ri, a) }
      .groupBy { case (ri, _, rj, _) => (ri, rj) }
      .map { case ((ri, rj), ps) => Edge(ri, ps.map(_._2), rj, ps.map(_._4)) }
      .toSeq.sortBy(e => (e.from, e.to))

    val filters = Array.fill(relations.size)(Vector.empty[Expression])
    def reduced(i: Int): LogicalPlan = filters(i).foldLeft(relations(i))((p, f) => Filter(f, p))
    // Visiting in topological order, every source is final when it is read.
    def pass(steps: Seq[Edge], visit: Seq[Int]): Unit =
      for (v <- visit; e <- steps if e.to == v)
        filters(v) :+= bloomFilter(e, relations(e.from), reduced(e.from))
    pass(edges, order)
    pass(edges.map(_.reverse), order.reverse)
    filters.toSeq
  }
}
