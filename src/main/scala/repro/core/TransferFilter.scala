package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.util.sketch.BloomFilter

/** A transferable predicate, materialized from one table's join keys and
  * applicable to any other table on compatible keys. The paper's two
  * instantiations are both provided: succinct Bloom filters (Pred-Trans) and
  * precise key sets (semi-joins, i.e. Yannakakis).
  */
trait TransferFilter extends Serializable {

  /** Keep only the rows of `df` whose `keys` tuple may exist in the filter.
    * Must never drop a row whose key tuple was present at build time
    * (no false negatives); may keep extra rows (false positives).
    */
  def applyTo(df: DataFrame, keys: Seq[String]): DataFrame

  /** Human-readable filter kind, for logs and metrics. */
  def kind: String
}

object TransferFilter {

  /** Normalize key columns so that hash-based filters agree across tables
    * whose key types differ only in width (INT nationkey vs BIGINT key etc.).
    * Floating-point keys need no more than the widening: `xxhash64` hashes
    * -0.0 as 0.0 and every NaN alike, as a join compares them.
    */
  def canonKeys(df: DataFrame, keys: Seq[String]): Seq[Column] = keys.map { k =>
    df.schema(k).dataType match {
      case ByteType | ShortType | IntegerType | LongType => col(k).cast(LongType)
      case FloatType                                     => col(k).cast(DoubleType)
      case _                                             => col(k)
    }
  }

  /** A single 64-bit hash of the (possibly composite) key tuple. All filter
    * construction and probing goes through this column, so a filter built on
    * one table's keys is directly probe-able with another table's keys.
    */
  def hashCol(df: DataFrame, keys: Seq[String]): Column =
    xxhash64(canonKeys(df, keys): _*)
}

/** Bloom-filter predicate — the paper's Pred-Trans filter type. The filter
  * is built over `xxhash64(keys)` via Spark's sketch aggregate and shipped
  * to probe tasks as a broadcast variable (it is small and cache-resident,
  * which is the whole point of §3.5's β ≪ 1 argument).
  */
final class BloomTransferFilter(bc: Broadcast[BloomFilter]) extends TransferFilter {
  override def applyTo(df: DataFrame, keys: Seq[String]): DataFrame = {
    val probe = udf { (h: Long) => bc.value.mightContainLong(h) }
    df.filter(probe(TransferFilter.hashCol(df, keys)))
  }
  override def kind: String = "bloom"
}

/** Precise key-set predicate — applying it is exactly a semi-join, making
  * predicate transfer degenerate to the Yannakakis semi-join phase
  * (paper §3.2, "Filter Type").
  */
final class ExactTransferFilter(keySet: DataFrame) extends TransferFilter {
  override def applyTo(df: DataFrame, keys: Seq[String]): DataFrame = {
    val probeCols = TransferFilter.canonKeys(df, keys)
    val cond = probeCols.zip(keySet.columns)
      .map { case (c, kc) => c === keySet(kc) }
      .reduce(_ && _)
    df.join(keySet, cond, "left_semi")
  }
  override def kind: String = "exact"
}

/** Strategy object deciding how filters are materialized in the transfer
  * phase. Building a filter runs a Spark job (aggregation / distinct), which
  * is why the transfer phase is eager — matching the paper's phase split.
  */
trait FilterBuilder extends Serializable {
  def name: String

  /** Materialize a filter over `df`'s `keys`.
    *
    * @param expectedRows upper bound on distinct keys (base-table row
    *                     estimate) — sizes the Bloom filter
    */
  def build(df: DataFrame, keys: Seq[String], expectedRows: Long): TransferFilter

  /** Materialize one filter per key set, optionally counting the rows, in as
    * few passes as the builder manages. The default is one pass per filter;
    * [[BloomFilterBuilder]] overrides this with a single-scan batch — the
    * paper's filter transformation scans the table once no matter how many
    * outgoing edges a vertex has (§3.2).
    */
  def buildMany(df: DataFrame, keySets: Seq[Seq[String]], expectedRows: Long,
                withCount: Boolean): (Option[Long], Seq[TransferFilter]) = {
    val count = if (withCount) Some(FilterBuilder.countRows(df)) else None
    (count, keySets.map(ks => build(df, ks, expectedRows)))
  }
}

object FilterBuilder {

  /** Row count of `df` in one Spark job. `Dataset.count()` plans an
    * aggregate whose exchange adaptive execution runs as a job of its own.
    */
  def countRows(df: DataFrame): Long = df.select().queryExecution.toRdd.count()
}

/** Builds [[BloomTransferFilter]]s with a fixed target false-positive rate. */
final case class BloomFilterBuilder(fpp: Double = 0.01) extends FilterBuilder {
  override def name: String = s"bloom(fpp=$fpp)"
  override def build(df: DataFrame, keys: Seq[String], expectedRows: Long): TransferFilter = {
    val bf = try {
      val built = df.stat.bloomFilter(
        TransferFilter.hashCol(df, keys),
        math.max(expectedRows, 64L),
        fpp)
      built.mightContainLong(0L) // touch: an all-empty input leaves the sketch unallocated
      built
    } catch {
      // Zero build rows ⇒ Spark returns a bit-less sketch (NPE on use).
      // An allocated empty filter rejects everything, which is the correct
      // semantics: no key can match an empty table.
      case _: NullPointerException => BloomFilter.create(64L, fpp)
    }
    new BloomTransferFilter(df.sparkSession.sparkContext.broadcast(bf))
  }

  /** Single-scan batch build: one `treeAggregate` job inserts every key
    * set's hash into its own Bloom filter and counts rows as a side effect,
    * so a vertex with k outgoing edges still costs exactly one table scan,
    * and a count alone (no key sets) is the same one job.
    */
  override def buildMany(df: DataFrame, keySets: Seq[Seq[String]],
                         expectedRows: Long,
                         withCount: Boolean): (Option[Long], Seq[TransferFilter]) = {
    val n = math.max(expectedRows, 64L)
    val hashCols = keySets.map(ks => TransferFilter.hashCol(df, ks))
    // zeroValue is re-deserialized per partition, so per-task mutation of the
    // filters is safe; combOp merges the per-partition filters pairwise.
    val zero = (0L, Array.fill(keySets.size)(BloomFilter.create(n, fpp)))
    // toRdd skips the conversion of every row to a Row; its rows are reused
    // buffers, so each hash is read at once and no row is kept.
    val (count, blooms) = df.select(hashCols: _*).queryExecution.toRdd.treeAggregate(zero)(
      seqOp = { case ((c, bfs), row) =>
        var i = 0
        while (i < bfs.length) { bfs(i).putLong(row.getLong(i)); i += 1 }
        (c + 1L, bfs)
      },
      combOp = { case ((c1, b1), (c2, b2)) =>
        var i = 0
        while (i < b1.length) { b1(i).mergeInPlace(b2(i)); i += 1 }
        (c1 + c2, b1)
      })
    val sc = df.sparkSession.sparkContext
    (if (withCount) Some(count) else None,
     blooms.toSeq.map(bf => new BloomTransferFilter(sc.broadcast(bf))))
  }
}

/** Builds [[ExactTransferFilter]]s (distinct key sets → semi-joins). */
case object ExactFilterBuilder extends FilterBuilder {
  override def name: String = "exact"
  override def build(df: DataFrame, keys: Seq[String], expectedRows: Long): TransferFilter = {
    val canon = TransferFilter.canonKeys(df, keys)
    val renamed = canon.zipWithIndex.map { case (c, i) => c.as(s"__pt_k$i") }
    new ExactTransferFilter(df.select(renamed: _*).distinct())
  }
}
