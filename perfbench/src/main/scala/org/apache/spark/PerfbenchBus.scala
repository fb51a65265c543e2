package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private. */
object PerfbenchBus {
  /** Block until every event posted so far reached every listener. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
