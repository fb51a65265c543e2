package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.util.sketch.BloomFilter
import repro.core.{BloomFilterBuilder, FilterBuilder, TransferFilter}
import scala.collection.mutable

/** What one operation's filter builds did. `rowCounts` holds the row count of
  * every `buildMany(withCount = true)` call, in call order.
  */
final class BuildLog {
  var filters = 0L
  var bloomBytes = 0L
  val rowCounts: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
}

/** Delegates to the program's [[FilterBuilder]] and records every call: a
  * span around it, the filters built, their configured Bloom size (from the
  * expected rows and fpp, as [[BloomFilterBuilder]] sizes them) and the row
  * count when one is taken.
  */
final class TimingFilterBuilder(inner: FilterBuilder, layer: String,
                                @transient tracer: Tracer, @transient log: BuildLog)
    extends FilterBuilder {

  override def name: String = inner.name

  private def configuredBytes(expectedRows: Long): Long = inner match {
    case b: BloomFilterBuilder => BloomFilter.optimalNumOfBits(math.max(expectedRows, 64L), b.fpp) / 8
    case _                     => 0L
  }

  override def build(df: DataFrame, keys: Seq[String], expectedRows: Long): TransferFilter =
    tracer.span(s"$layer.build") {
      val f = inner.build(df, keys, expectedRows)
      log.filters += 1
      log.bloomBytes += configuredBytes(expectedRows)
      f
    }

  override def buildMany(df: DataFrame, keySets: Seq[Seq[String]], expectedRows: Long,
                         withCount: Boolean): (Option[Long], Seq[TransferFilter]) =
    tracer.span(s"$layer.build") {
      val (count, fs) = inner.buildMany(df, keySets, expectedRows, withCount)
      log.filters += fs.size
      log.bloomBytes += fs.size * configuredBytes(expectedRows)
      count.foreach(log.rowCounts += _)
      (count, fs)
    }
}
