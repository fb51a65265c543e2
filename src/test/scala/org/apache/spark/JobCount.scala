package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block starts. Listener events arrive
  * asynchronously; the count is exact only after the listener bus, which
  * Spark keeps package-private, is drained on both sides of the block.
  */
object JobCount {
  def of[A](sc: SparkContext)(block: => A): (A, Int) = {
    sc.listenerBus.waitUntilEmpty()
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      val r = block
      sc.listenerBus.waitUntilEmpty()
      (r, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
