package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.storage.BlockId
import scala.collection.mutable

/** One timed interval around a call into a layer.
  *
  * @param trace the operation it belongs to, `workload/query/mode`
  * @param round the measured round (0 for set-up and one-off work)
  */
final case class Span(id: Int, parent: Int, trace: String, round: Int, name: String,
                      startNs: Long, var endNs: Long = 0L) {
  def durNs: Long = endNs - startNs
}

/** Spark work attributed to one span. */
final class Counters {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var runMs = 0L
  var gcMs = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L

  def +=(o: Counters): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; runMs += o.runMs
    gcMs += o.gcMs; shuffleReadBytes += o.shuffleReadBytes
    shuffleWriteBytes += o.shuffleWriteBytes
  }
}

/** Counts jobs, stages, tasks, executor run and GC time, shuffle bytes and
  * block-manager storage from outside the program. Each job and stage is
  * attributed to the span named by the [[Tracer.SpanKey]] local property of
  * the thread that submitted it; tasks follow their stage.
  */
final class CounterListener extends SparkListener {
  private val bySpan = mutable.Map.empty[Int, Counters]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val blocks = mutable.Map.empty[BlockId, Long]

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(Tracer.SpanKey))).map(_.toInt)

  private def at(span: Int): Counters = bySpan.getOrElseUpdate(span, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    spanOf(e.properties).foreach(at(_).jobs += 1)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    spanOf(e.properties).foreach { s =>
      stageSpan(e.stageInfo.stageId) = s
      at(s).stages += 1
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (s <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = at(s)
      c.tasks += 1
      c.runMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    if (info.blockId.isRDD) {
      if (info.storageLevel.isValid) blocks(info.blockId) = info.memSize + info.diskSize
      else blocks.remove(info.blockId)
    }
  }

  def counters(span: Int): Counters = synchronized(bySpan.getOrElse(span, new Counters))

  /** Bytes of cached RDD blocks held right now. */
  def storedBytes: Long = synchronized(blocks.values.sum)
}

/** Span recorder. Spans are kept in memory and written out once, at the end
  * of the run. While not [[active]] every call is a plain pass-through.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var trace = "setup"
  private var round = 0
  val listener = new CounterListener
  if (enabled) sc.addSparkListener(listener)

  /** Whether spans are recorded now; a traced run also makes untraced
    * rounds, to measure the tracing overhead.
    */
  var active: Boolean = enabled

  def spans: Seq[Span] = recorded.toSeq

  /** Run `body` as operation `id` of measured round `r`. */
  def inTrace[A](id: String, r: Int)(body: => A): A = {
    val (t, rr) = (trace, round)
    trace = id; round = r
    try body finally { trace = t; round = rr }
  }

  def span[A](name: String)(body: => A): A =
    if (!active) body
    else {
      val s = Span(recorded.size + 1, stack.headOption.fold(0)(_.id), trace, round, name,
        System.nanoTime())
      recorded += s
      stack = s :: stack
      sc.setLocalProperty(Tracer.SpanKey, s.id.toString)
      try body
      finally {
        s.endNs = System.nanoTime()
        stack = stack.tail
        sc.setLocalProperty(Tracer.SpanKey, stack.headOption.map(_.id.toString).orNull)
      }
    }

  /** Wait until the listener has seen every event posted so far. */
  def drain(): Unit = if (enabled) PerfbenchBus.drain(sc)

  // Built on first use, which comes after the last span is recorded.
  private lazy val children: Map[Int, Seq[Span]] = recorded.toSeq.groupBy(_.parent)

  /** `s` and every span below it. */
  def subtree(s: Span): Seq[Span] = s +: children.getOrElse(s.id, Nil).flatMap(subtree)

  /** Spark work done under `s`, its children included. */
  def countersUnder(s: Span): Counters = {
    val c = new Counters
    subtree(s).foreach(x => c += listener.counters(x.id))
    c
  }

  /** Duration of `s` minus the time its child spans cover (children run
    * sequentially on the driver thread, so their durations do not overlap).
    */
  def selfNs(s: Span): Long = s.durNs - children.getOrElse(s.id, Nil).map(_.durNs).sum

  def write(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val lines = recorded.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"trace":"${s.trace}","round":${s.round},""" +
        s""""name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
    }
    Files.write(file, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  /** Spark local property carrying the id of the innermost open span. */
  val SpanKey = "perfbench.span"
}
